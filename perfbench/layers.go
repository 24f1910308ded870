package main

// layerMetric is one per-layer figure the traced run prints. Every
// traced run prints all of them; a layer the workload does not exercise
// reads 0 (NOTES.md lists which workload moves which figure).
type layerMetric struct{ name, unit string }

var layerMetrics = []layerMetric{
	// engines: exact engine, timed through trace.BatchStream and
	// sched.BatchTarget wrappers around a replica of sim.Run.
	{"trace.decode_ns_per_event", "ns"},
	{"core.step_ns_per_instr", "ns"},
	{"sched.self_ns_per_instr", "ns"},
	{"sched.events_per_batch", "count"},
	{"core.l1_misses_per_kinstr", "count"},
	{"core.l2_misses_per_kinstr", "count"},
	{"mmu.tlb_misses_per_kinstr", "count"},
	// engines: screening and sampled engines.
	{"stackdist.ns_per_instr", "ns"},
	{"stackdist.l2_refs_per_kinstr", "count"},
	{"sample.ns_per_instr", "ns"},
	{"sample.intervals", "count"},
	{"sample.measured_share", "ratio"},
	{"sample.cpi_err_pct", "%"},
	{"trace.skip_ns_per_event", "ns"},
	{"core.warm_ns_per_event", "ns"},
	{"engines.exact_minstr_per_s", "Minstr/s"},
	{"engines.screening_minstr_per_s", "Minstr/s"},
	{"engines.sampled_minstr_per_s", "Minstr/s"},
	// every workload: the recording its set-up makes.
	{"workload.record_s", "s"},
	{"workload.recording_mb", "MB"},
	{"workload.heap_after_record_mb", "MB"},
	// serving: request path, from correlated client, coordinator and
	// worker handler spans.
	{"transport.edge_us_per_req", "us"},
	{"transport.edge_conns_per_kreq", "count"},
	{"fabric.self_us_per_req", "us"},
	{"fabric.leg_conns_per_kreq", "count"},
	{"fabric.hedges", "count"},
	{"fabric.failovers", "count"},
	{"client.attempts_per_req", "ratio"},
	{"service.handler_us_per_req", "us"},
	{"service.handler_ms_per_req", "ms"},
	{"service.key_us", "us"},
	{"service.mem_hit_share", "ratio"},
	{"service.disk_hit_share", "ratio"},
	{"service.body_bytes", "bytes"},
	{"service.coalesced", "count"},
	{"service.shed", "count"},
	{"sim.run_ms_per_req", "ms"},
	// serving: disk tier, through a store.FS wrapper.
	{"store.read_us_per_get", "us"},
	{"store.write_us_per_put", "us"},
	{"store.sync_us_per_put", "us"},
	{"store.syncs_per_kput", "count"},
	{"store.bytes_per_put", "bytes"},
	// every workload: Go runtime per operation, and what tracing cost.
	{"runtime.alloc_kb_per_req", "KB"},
	{"runtime.gc_per_kreq", "count"},
	{"bench.trace_overhead_pct", "%"},
}

// layerResult turns measured values into the printed per-layer set.
func layerResult(vals map[string]float64) map[string]metric {
	m := make(map[string]metric, len(layerMetrics))
	for _, lm := range layerMetrics {
		m[lm.name] = metric{Value: vals[lm.name], Unit: lm.unit}
	}
	return m
}
