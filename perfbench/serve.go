package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/experiments"
	"repro/internal/fabric"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/workload"
)

// serveSpec sizes the serving workloads.
type serveSpec struct {
	setups       int    // cluster set-ups (setup_s is their median)
	hotKeys      int    // distinct keys pre-warmed for serve-hot, half /v1/sweep, half /v1/sim
	cacheEntries int    // per-worker LRU bound: below each worker's share of the hot keys
	clients      int    // closed-loop clients
	churnInstr   uint64 // instruction cap of a serve-churn /v1/sim (about 3 ms of compute)
	// churnThink bounds serve-churn's think time. Miss latencies on a
	// 2-CPU host are bimodal, and without think time the share in each
	// mode changed from run to run: the median moved between 2.8 and
	// 4.7 ms across seeds. A seeded uniform think time holds the mix,
	// and the median, steady.
	churnThink   time.Duration
	directChecks int // requests re-sent straight to their home worker
	simSamples   int // churn requests re-run through sim.Run in the traced run
}

var (
	serveFull = serveSpec{setups: 3, hotKeys: 64, cacheEntries: 16, clients: 2,
		churnInstr: 100_000, churnThink: 2 * time.Millisecond, directChecks: 16, simSamples: 12}
	serveTiny = serveSpec{setups: 1, hotKeys: 12, cacheEntries: 3, clients: 2,
		churnInstr: 20_000, churnThink: 2 * time.Millisecond, directChecks: 4, simSamples: 2}
)

const (
	numWorkers = 2
	hotSkew    = 1.2 // zipf exponent of the serve-hot key mix
	maxSpans   = 30_000
)

// request is one API call of a workload, with its content address.
type request struct {
	path string
	body []byte
	key  string
	// Exactly one is set; kept to time the key derivation.
	sweep *service.SweepRequest
	sim   *service.SimRequest
}

func sweepRequest(r service.SweepRequest) (request, error) {
	key, err := service.SweepKey(r)
	if err != nil {
		return request{}, err
	}
	body, err := json.Marshal(r)
	return request{path: "/v1/sweep", body: body, key: key, sweep: &r}, err
}

func simRequest(r service.SimRequest) (request, error) {
	key, err := service.SimKey(r)
	if err != nil {
		return request{}, err
	}
	body, err := json.Marshal(r)
	return request{path: "/v1/sim", body: body, key: key, sim: &r}, err
}

func (r request) deriveKey() (string, error) {
	if r.sweep != nil {
		return service.SweepKey(*r.sweep)
	}
	return service.SimKey(*r.sim)
}

// hotSweepIDs are exact experiments cheap enough at a small
// instruction cap to pre-warm many keys in set-up.
var hotSweepIDs = []string{"fig2", "fig3", "fig4", "fig5", "fig9", "fig10", "fetchsize", "ablate-wb"}

// specSpace lists every valid ConfigSpec the serving workloads draw
// from, in a fixed order.
func specSpace() []experiments.ConfigSpec {
	var out []experiments.ConfigSpec
	for _, preset := range []string{"base", "optimized"} {
		for _, policy := range []string{"writeback", "wmi", "writeonly", "subblock"} {
			for _, size := range experiments.Fig6Sizes {
				for access := 3; access <= 10; access++ {
					for _, split := range []bool{false, true} {
						for _, dirty := range []bool{false, true} {
							for _, lps := range []string{"", "none", "assoc"} {
								s := experiments.ConfigSpec{Preset: preset, Policy: policy, L2KW: size / 1024,
									L2Access: access, Split: split, DirtyBuffer: dirty, LPS: lps}
								if _, err := experiments.BuildConfig(s); err == nil {
									out = append(out, s)
								}
							}
						}
					}
				}
			}
		}
	}
	return out
}

// hotRequests draws the seed's distinct serve-hot keys. The rank of a
// key in the zipf mix fixes its kind (even ranks /v1/sweep, odd ranks
// /v1/sim) and its experiment, so every seed's mix has the same shape;
// the seed draws instruction caps and configurations.
func hotRequests(seed int64, sp serveSpec, space []experiments.ConfigSpec) ([]request, error) {
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	var reqs []request
	for rank := 0; len(reqs) < sp.hotKeys; rank++ {
		var req request
		var err error
		if rank%2 == 0 {
			req, err = sweepRequest(service.SweepRequest{
				Experiment:      hotSweepIDs[(rank/2)%len(hotSweepIDs)],
				MaxInstructions: uint64(5_000 + 1_000*rng.Intn(30)),
			})
		} else {
			req, err = simRequest(service.SimRequest{
				Config:          space[rng.Intn(len(space))],
				MaxInstructions: uint64(20_000 + 1_000*rng.Intn(40)),
			})
		}
		if err != nil {
			return nil, err
		}
		if seen[req.key] {
			rank--
			continue
		}
		seen[req.key] = true
		reqs = append(reqs, req)
	}
	return reqs, nil
}

// churnSource hands out never-seen /v1/sim requests: a seeded
// permutation of the spec space, with the instruction cap raised by one
// on every lap so no key repeats.
type churnSource struct {
	space []experiments.ConfigSpec
	perm  []int
	instr uint64
	next  atomic.Int64
}

func newChurnSource(seed int64, instr uint64, space []experiments.ConfigSpec) *churnSource {
	rng := rand.New(rand.NewSource(seed))
	return &churnSource{space: space, perm: rng.Perm(len(space)), instr: instr}
}

func (c *churnSource) request(i int) (request, error) {
	n := len(c.perm)
	return simRequest(service.SimRequest{
		Config:          c.space[c.perm[i%n]],
		MaxInstructions: c.instr + uint64(i/n),
	})
}

// node is one cachesimd worker on a loopback listener.
type node struct {
	id  string
	srv *service.Server
	ts  *httptest.Server
}

// cluster is the serving topology: one coordinator and two workers,
// each worker with its own store directory.
type cluster struct {
	dir    string
	cancel context.CancelFunc
	coord  *httptest.Server
	nodes  map[string]*node
}

// startCluster builds the topology. With a tracer, the coordinator and
// worker handlers, the listeners and the stores' files are wrapped; the
// wrappers record only while the tracer is on.
func startCluster(dir string, sp serveSpec, tr *tracer, corruptHits bool) (*cluster, error) {
	ctx, cancel := context.WithCancel(context.Background())
	c := &cluster{dir: dir, cancel: cancel, nodes: map[string]*node{}}
	coord, err := fabric.NewCoordinator(ctx, fabric.CoordinatorOptions{
		HeartbeatTTL: time.Hour,
		Client:       client.Options{MaxAttempts: 3, AttemptTimeout: 10 * time.Minute},
	})
	if err != nil {
		c.close()
		return nil, err
	}
	for i := 1; i <= numWorkers; i++ {
		id := fmt.Sprintf("w%d", i)
		so := store.Options{Dir: filepath.Join(dir, id)}
		if tr != nil {
			so.FS = timedFS{store.OS, tr}
		}
		st, err := store.Open(so)
		if err != nil {
			c.close()
			return nil, err
		}
		srv, err := service.New(service.Options{CacheEntries: sp.cacheEntries, Store: st, WorkerID: id})
		if err != nil {
			st.Close()
			c.close()
			return nil, err
		}
		h := srv.Handler()
		if corruptHits {
			h = flipHitByte(h)
		}
		ts := httptest.NewUnstartedServer(h)
		if tr != nil {
			ts.Config.Handler = tr.handler("service", id, h)
			ts.Config.ConnState = tr.connCounter(&tr.legConns)
		}
		ts.Start()
		c.nodes[id] = &node{id: id, srv: srv, ts: ts}
		coord.Membership().Heartbeat(id, ts.URL, fabric.WorkerStats{})
	}
	c.coord = httptest.NewUnstartedServer(coord.Handler())
	if tr != nil {
		c.coord.Config.Handler = tr.handler("fabric", "coordinator", coord.Handler())
		c.coord.Config.ConnState = tr.connCounter(&tr.edgeConns)
	}
	c.coord.Start()
	return c, nil
}

func (c *cluster) close() {
	if c.coord != nil {
		c.coord.Close()
	}
	for _, n := range c.nodes {
		n.ts.Close()
		n.srv.Close()
	}
	c.cancel()
	os.RemoveAll(c.dir)
	os.Remove(filepath.Dir(c.dir)) // the shared tmp dir, once its last cluster is gone
}

// flipHitByte corrupts the served bytes of every cache hit: the
// self-test's proof that the byte-identity checks catch a wrong body.
func flipHitByte(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(&flipWriter{ResponseWriter: w}, r)
	})
}

type flipWriter struct {
	http.ResponseWriter
	done bool
}

func (f *flipWriter) Write(p []byte) (int, error) {
	if f.done || len(p) == 0 || f.Header().Get("X-Cache") != "hit" {
		return f.ResponseWriter.Write(p)
	}
	f.done = true
	q := append([]byte(nil), p...)
	q[len(q)/2] ^= 1
	return f.ResponseWriter.Write(q)
}

// reqSample is one completed client request.
type reqSample struct {
	start, end int64 // tracer clock, ns
	key, tier  string
	body       int
	ok         bool
}

// loadGen drives the coordinator with a closed loop of clients. Each
// client waits a seeded uniform [0, think) before each request.
type loadGen struct {
	cl    *client.Client
	url   string
	tr    *tracer
	chk   *checks
	seed  int64
	think time.Duration
}

// run sends requests until d has passed. next picks a client's next
// request; check validates a response.
func (g *loadGen) run(d time.Duration, clients int, next func(rng *rand.Rand) (int, request, error),
	check func(idx int, req request, res client.Result) error) []reqSample {
	deadline := time.Now().Add(d)
	var mu sync.Mutex
	var all []reqSample
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(g.seed*1000 + int64(c)))
			var local []reqSample
			for time.Now().Before(deadline) {
				idx, req, err := next(rng)
				if err != nil {
					g.chk.op(err)
					continue
				}
				if g.think > 0 {
					time.Sleep(time.Duration(rng.Int63n(int64(g.think))))
				}
				s := reqSample{start: g.tr.now()}
				res, err := g.cl.PostJSON(context.Background(), g.url+req.path, req.body)
				s.end = g.tr.now()
				if err == nil {
					err = check(idx, req, res)
				}
				g.chk.op(err)
				s.ok = err == nil
				s.key = res.Header.Get("X-Cache-Key")
				s.tier = res.Header.Get("X-Cache-Tier")
				s.body = len(res.Body)
				local = append(local, s)
			}
			mu.Lock()
			all = append(all, local...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return all
}

// serveRun is one serving workload's state between set-up and report.
type serveRun struct {
	o       runOpts
	sp      serveSpec
	churn   bool
	chk     *checks
	space   []experiments.ConfigSpec
	hot     []request
	prewarm map[string][]byte // hot key -> body of its pre-warm miss
	home    map[string]string // hot key -> worker that computed it
	src     *churnSource
	kept    sync.Map // churn index -> client.Result kept for the direct check
	keepIdx map[int]bool
}

// setup builds the topology (and for serve-hot pre-warms every key)
// sp.setups times, keeping the last cluster. Each set-up records the
// kernel suite: the first through workload.Record, which the workers'
// /v1/sim replays, the others afresh through the same packer.
func (r *serveRun) setup(tr *tracer, setups int) (*cluster, []float64, map[string]float64, error) {
	var times []float64
	rec := map[string]float64{}
	var c *cluster
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		if i == 0 {
			suite := workload.Record(1)
			rec["workload.record_s"] = time.Since(t0).Seconds()
			var b int
			for _, s := range suite {
				b += s.Trace.Bytes()
			}
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			rec["workload.recording_mb"] = float64(b) / (1 << 20)
			rec["workload.heap_after_record_mb"] = float64(ms.HeapInuse) / (1 << 20)
		} else {
			for _, m := range workload.Members() {
				_ = trace.Pack(m.NewStream(1))
			}
		}
		tmp := filepath.Join(r.o.Out, "tmp")
		if err := os.MkdirAll(tmp, 0o755); err != nil {
			return nil, nil, nil, err
		}
		dir, err := os.MkdirTemp(tmp, "cluster-")
		if err != nil {
			return nil, nil, nil, err
		}
		if c, err = startCluster(dir, r.sp, tr, r.o.corruptHits); err != nil {
			os.RemoveAll(dir)
			return nil, nil, nil, err
		}
		if !r.churn {
			if err := r.warm(c); err != nil {
				c.close()
				return nil, nil, nil, err
			}
		}
		times = append(times, time.Since(t0).Seconds())
		if i < setups-1 {
			c.close()
		}
	}
	return c, times, rec, nil
}

// warm sends every hot key once through the coordinator; each must be
// a miss, and its body becomes the reference for every later hit.
func (r *serveRun) warm(c *cluster) error {
	cl, err := client.New(client.Options{Seed: uint64(r.o.Seed)})
	if err != nil {
		return err
	}
	r.prewarm = map[string][]byte{}
	r.home = map[string]string{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	jobs := make(chan request)
	for w := 0; w < r.sp.clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for req := range jobs {
				res, err := cl.PostJSON(context.Background(), c.coord.URL+req.path, req.body)
				if err == nil && res.Header.Get("X-Cache") != "miss" {
					err = fmt.Errorf("pre-warm %s: X-Cache %q, want miss", trimLabel(req.key), res.Header.Get("X-Cache"))
				}
				r.chk.op(err)
				mu.Lock()
				r.prewarm[req.key] = res.Body
				r.home[req.key] = res.Header.Get(service.WorkerHeader)
				mu.Unlock()
			}
		}()
	}
	for _, req := range r.hot {
		jobs <- req
	}
	close(jobs)
	wg.Wait()
	return nil
}

// think is the workload's per-request think time bound.
func (r *serveRun) think() time.Duration {
	if r.churn {
		return r.sp.churnThink
	}
	return 0
}

// next returns the workload's request picker for one client.
func (r *serveRun) next() func(rng *rand.Rand) (int, request, error) {
	if r.churn {
		return func(*rand.Rand) (int, request, error) {
			i := int(r.src.next.Add(1) - 1)
			req, err := r.src.request(i)
			return i, req, err
		}
	}
	zipfs := map[*rand.Rand]*rand.Zipf{}
	var mu sync.Mutex
	return func(rng *rand.Rand) (int, request, error) {
		mu.Lock()
		z, ok := zipfs[rng]
		if !ok {
			z = rand.NewZipf(rng, hotSkew, 1, uint64(len(r.hot)-1))
			zipfs[rng] = z
		}
		mu.Unlock()
		i := int(z.Uint64())
		return i, r.hot[i], nil
	}
}

// check validates one coordinator response: serve-hot must hit with
// the pre-warm bytes, serve-churn must miss.
func (r *serveRun) check(idx int, req request, res client.Result) error {
	cache := res.Header.Get("X-Cache")
	if r.churn {
		if cache != "miss" {
			return fmt.Errorf("churn %d: X-Cache %q, want miss", idx, cache)
		}
		if r.keepIdx[idx] {
			r.kept.Store(idx, res)
		}
		return nil
	}
	if cache != "hit" {
		return fmt.Errorf("hot %s: X-Cache %q, want hit", trimLabel(req.key), cache)
	}
	if !bytes.Equal(res.Body, r.prewarm[req.key]) {
		return fmt.Errorf("hot %s: body differs from its pre-warm miss", trimLabel(req.key))
	}
	return nil
}

// directChecks re-sends a seeded sample of requests straight to their
// home worker; each body must equal the coordinator's.
func (r *serveRun) directChecks(c *cluster, cl *client.Client) {
	type pair struct {
		req    request
		body   []byte
		worker string
	}
	var pairs []pair
	if r.churn {
		idxs := make([]int, 0, len(r.keepIdx))
		r.kept.Range(func(k, _ any) bool {
			idxs = append(idxs, k.(int))
			return true
		})
		sort.Ints(idxs)
		for _, i := range idxs {
			v, _ := r.kept.Load(i)
			res := v.(client.Result)
			req, err := r.src.request(i)
			if err != nil {
				r.chk.op(err)
				continue
			}
			pairs = append(pairs, pair{req, res.Body, res.Header.Get(service.WorkerHeader)})
		}
	} else {
		rng := rand.New(rand.NewSource(r.o.Seed + 7))
		for _, i := range rng.Perm(len(r.hot))[:min(r.sp.directChecks, len(r.hot))] {
			req := r.hot[i]
			pairs = append(pairs, pair{req, r.prewarm[req.key], r.home[req.key]})
		}
	}
	for _, p := range pairs {
		n, ok := c.nodes[p.worker]
		if !ok {
			r.chk.op(fmt.Errorf("direct %s: unknown home worker %q", trimLabel(p.req.key), p.worker))
			continue
		}
		res, err := cl.PostJSON(context.Background(), n.ts.URL+p.req.path, p.req.body)
		if err == nil && !bytes.Equal(res.Body, p.body) {
			err = fmt.Errorf("direct %s on %s: body differs from the coordinator's", trimLabel(p.req.key), p.worker)
		}
		r.chk.op(err)
	}
}

// churnKeep picks which churn request indices keep their body for the
// direct check: a seeded spread over the first requests of the run.
func churnKeep(seed int64, n int) map[int]bool {
	rng := rand.New(rand.NewSource(seed + 11))
	keep := map[int]bool{}
	for len(keep) < n {
		keep[rng.Intn(40*n)] = true
	}
	return keep
}

func runServe(o runOpts, churn bool) (*outcome, error) {
	sp := serveFull
	if o.tiny {
		sp = serveTiny
	}
	r := &serveRun{o: o, sp: sp, churn: churn, chk: newChecks(), space: specSpace()}
	var err error
	if churn {
		r.src = newChurnSource(o.Seed, sp.churnInstr, r.space)
		r.keepIdx = churnKeep(o.Seed, sp.directChecks)
	} else if r.hot, err = hotRequests(o.Seed, sp, r.space); err != nil {
		return nil, err
	}
	if o.Trace {
		return r.traced()
	}

	c, setupTimes, _, err := r.setup(nil, sp.setups)
	if err != nil {
		return nil, err
	}
	defer c.close()
	cl, err := client.New(client.Options{Seed: uint64(o.Seed)})
	if err != nil {
		return nil, err
	}
	g := &loadGen{cl: cl, url: c.coord.URL, tr: newTracer(), chk: r.chk, seed: o.Seed, think: r.think()}
	samples := g.run(o.Seconds, sp.clients, r.next(), r.check)
	r.directChecks(c, cl)

	okN := len(okLatencies(samples))
	rate, p50, p99 := windowStats(samples, o.Seconds, statWindows)
	att, failed := r.chk.counts()
	setup := median(setupTimes)
	rss := peakRSSMB()
	out := &outcome{checks: r.chk, e2e: map[string]metric{
		"setup_s":     {setup, "s"},
		"peak_rss_mb": {rss, "MB"},
		"ok_share":    {1 - per(float64(failed), float64(att)), "ratio"},
		"rate_per_s":  {rate, "1/s"},
		"p50_ms":      {p50, "ms"},
	}}
	if churn {
		out.summary = []string{
			fmt.Sprintf("serve-churn: seed %d, %d clients, %d never-seen /v1/sim requests", o.Seed, sp.clients, len(samples)),
			summaryLine("miss_rps", rate, "misses/s, median of 5 windows", okN, "misses"),
			summaryLine("miss_p50_ms", p50, "ms, median of 5 windows", okN, "misses"),
			summaryLine("miss_p99_ms", p99, "ms, median of 5 windows", okN, "misses"),
		}
	} else {
		out.summary = []string{
			fmt.Sprintf("serve-hot: seed %d, %d clients, zipf(%.1f) over %d pre-warmed keys", o.Seed, sp.clients, hotSkew, len(r.hot)),
			summaryLine("hit_rps", rate, "hits/s, median of 5 windows", okN, "hits"),
			summaryLine("hit_p50_us", p50*1000, "us, median of 5 windows", okN, "hits"),
			summaryLine("hit_p99_us", p99*1000, "us, median of 5 windows", okN, "hits"),
		}
	}
	out.summary = append(out.summary,
		summaryLine("setup_s", setup, "s (median)", len(setupTimes), "set-ups"),
		summaryLine("peak_rss_mb", rss, "MB", 1, "process"),
		summaryLine("fail_share", per(float64(failed), float64(att)), "failed / attempted", att, "operations"),
	)
	return out, nil
}

// statWindows is how many equal windows a serving run's latency and
// throughput are computed over; the reported figure is their median,
// so a stall of a few seconds on a shared host moves one window, not
// the result.
const statWindows = 5

// windowStats splits the passed requests into windows by completion
// time and returns the median over windows of each window's rate (1/s),
// p50 and p99 (ms). Every window of a 20 s run holds more than 1,000
// requests, so its p99 has at least ten beyond it.
func windowStats(samples []reqSample, d time.Duration, windows int) (rate, p50, p99 float64) {
	w := int64(d) / int64(windows)
	lats := make([][]float64, windows)
	for _, s := range samples {
		if !s.ok {
			continue
		}
		i := min(int(s.end/w), windows-1)
		lats[i] = append(lats[i], float64(s.end-s.start)/1e6)
	}
	var rates, p50s, p99s []float64
	for _, l := range lats {
		rates = append(rates, float64(len(l))/(float64(w)/1e9))
		p50s = append(p50s, quantile(l, 0.5))
		p99s = append(p99s, quantile(l, 0.99))
	}
	return median(rates), median(p50s), median(p99s)
}

// okLatencies returns the latencies (ms) of the requests that passed.
func okLatencies(samples []reqSample) []float64 {
	var lats []float64
	for _, s := range samples {
		if s.ok {
			lats = append(lats, float64(s.end-s.start)/1e6)
		}
	}
	return lats
}

// traceToggle is the length of the alternating untraced and traced
// windows of a traced serving run. Alternating, rather than one half
// of each, lets drift in the host's speed fall on both sides alike.
const traceToggle = time.Second

// window is one stretch of a traced run with tracing on or off.
type window struct {
	on         bool
	start, end int64 // tracer clock
	mem0, mem1 memSnap
}

// toggleWindows flips tracing every traceToggle until stop is closed,
// and returns the windows it made.
func toggleWindows(tr *tracer, stop <-chan struct{}) []window {
	t := time.NewTicker(traceToggle)
	defer t.Stop()
	cur := window{start: tr.now(), mem0: readMem()}
	var ws []window
	for {
		select {
		case <-stop:
			cur.end, cur.mem1 = tr.now(), readMem()
			tr.on.Store(false)
			return append(ws, cur)
		case <-t.C:
			cur.end, cur.mem1 = tr.now(), readMem()
			ws = append(ws, cur)
			tr.on.Store(!cur.on)
			cur = window{on: !cur.on, start: cur.end, mem0: cur.mem1}
		}
	}
}

// split sorts samples into those that ran wholly inside an untraced or
// a traced window; a request that straddles a flip is in neither. It
// also sums the runtime counters of the untraced windows.
func split(samples []reqSample, ws []window) (plain, traced []reqSample, mem memSnap) {
	for _, w := range ws {
		if !w.on {
			mem.alloc += w.mem1.alloc - w.mem0.alloc
			mem.gcs += w.mem1.gcs - w.mem0.gcs
		}
	}
	for _, s := range samples {
		i := sort.Search(len(ws), func(i int) bool { return ws[i].end > s.start })
		if i == len(ws) || s.start < ws[i].start || s.end > ws[i].end {
			continue
		}
		if ws[i].on {
			traced = append(traced, s)
		} else {
			plain = append(plain, s)
		}
	}
	return plain, traced, mem
}

// traced runs the measuring time in alternating untraced and traced
// windows on one cluster, and attributes each traced request's round
// trip to transport, fabric and service from its correlated spans.
func (r *serveRun) traced() (*outcome, error) {
	tr := newTracer()
	c, _, vals, err := r.setup(tr, 1)
	if err != nil {
		return nil, err
	}
	defer c.close()
	cl, err := client.New(client.Options{Seed: uint64(r.o.Seed)})
	if err != nil {
		return nil, err
	}
	g := &loadGen{cl: cl, url: c.coord.URL, tr: tr, chk: r.chk, seed: r.o.Seed, think: r.think()}

	cs0 := cl.Stats()
	stop := make(chan struct{})
	wins := make(chan []window, 1)
	go func() { wins <- toggleWindows(tr, stop) }()
	all := g.run(r.o.Seconds, r.sp.clients, r.next(), r.check)
	close(stop)
	plain, traced, mem := split(all, <-wins)
	cs1 := cl.Stats()
	plainLat, tracedLat := okLatencies(plain), okLatencies(traced)
	r.directChecks(c, cl)

	att := correlate(traced, tr.take())
	n := float64(len(traced))
	vals["transport.edge_us_per_req"] = att.edge
	vals["fabric.self_us_per_req"] = att.fabric
	vals["service.handler_us_per_req"] = att.service
	vals["service.handler_ms_per_req"] = att.service / 1000
	vals["transport.edge_conns_per_kreq"] = per(float64(tr.edgeConns.Load()), n/1000)
	vals["fabric.leg_conns_per_kreq"] = per(float64(tr.legConns.Load()), n/1000)
	vals["client.attempts_per_req"] = per(float64(cs1.Attempts-cs0.Attempts), float64(cs1.Calls-cs0.Calls))

	var memHits, diskHits, body float64
	for _, s := range traced {
		switch s.tier {
		case "memory":
			memHits++
		case "disk":
			diskHits++
		}
		body += float64(s.body)
	}
	vals["service.mem_hit_share"] = per(memHits, n)
	vals["service.disk_hit_share"] = per(diskHits, n)
	vals["service.body_bytes"] = per(body, n)

	reads, writes := float64(tr.reads.Load()), float64(tr.writes.Load())
	vals["store.read_us_per_get"] = per(float64(tr.readNs.Load())/1e3, reads)
	vals["store.write_us_per_put"] = per(float64(tr.writeNs.Load())/1e3, writes)
	vals["store.sync_us_per_put"] = per(float64(tr.syncNs.Load())/1e3, writes)
	vals["store.syncs_per_kput"] = per(float64(tr.syncs.Load()), writes/1000)
	vals["store.bytes_per_put"] = per(float64(tr.wrote.Load()), writes)

	for _, nd := range c.nodes {
		m := nd.srv.Metrics()
		vals["service.coalesced"] += float64(m.Coalesced)
		vals["service.shed"] += float64(m.Overloads)
	}
	hedges, failovers, err := clusterCounters(cl, c.coord.URL)
	r.chk.op(err)
	vals["fabric.hedges"], vals["fabric.failovers"] = hedges, failovers

	vals["service.key_us"] = r.keyMicros(len(all))
	if r.churn {
		vals["sim.run_ms_per_req"] = r.simMillis(len(all))
	}
	vals["runtime.alloc_kb_per_req"] = per(float64(mem.alloc)/1024, float64(len(plain)))
	vals["runtime.gc_per_kreq"] = per(float64(mem.gcs), float64(len(plain))/1000)
	plainP50, tracedP50 := median(plainLat), median(tracedLat)
	vals["bench.trace_overhead_pct"] = pctDiff(tracedP50, plainP50)

	what := "hit"
	if r.churn {
		what = "miss"
	}
	rtt := att.edge + att.fabric + att.service
	out := &outcome{checks: r.chk, layer: layerResult(vals), spans: att.spans}
	out.ledger = map[string]any{
		"tracing_overhead_pct": vals["bench.trace_overhead_pct"],
		"untraced":             map[string]any{"requests": len(plainLat), "p50_ms": plainP50},
		"traced":               map[string]any{"requests": len(tracedLat), "p50_ms": tracedP50},
		what + "_share": map[string]float64{
			"transport": per(att.edge, rtt),
			"fabric":    per(att.fabric, rtt),
			"service":   per(att.service, rtt),
		},
		what + "_us": map[string]float64{
			"round_trip": rtt, "transport": att.edge, "fabric": att.fabric, "service": att.service,
		},
		"correlated_requests": att.matched,
		"uncorrelated":        att.unmatched,
		"spans_total":         att.total,
		"spans_written":       len(att.spans),
		"metrics":             vals,
	}
	out.summary = []string{fmt.Sprintf("%s traced: seed %d, %d requests correlated, tracing overhead %.2f%% on p50",
		r.o.Workload, r.o.Seed, att.matched, vals["bench.trace_overhead_pct"])}
	return out, nil
}

// attribution is the traced requests' mean self time per layer (µs)
// and the correlated spans.
type attribution struct {
	edge, fabric, service float64
	matched, unmatched    int
	total                 int
	spans                 []span
}

// correlate joins each traced client request to the coordinator span
// and the worker span that served it. The coordinator forwards no
// request ID, so spans are joined by content key and time containment:
// a coordinator span with the request's key inside the client's round
// trip, and a worker span with that key inside the coordinator span.
func correlate(samples []reqSample, spans []span) attribution {
	byKey := map[string][]*span{}
	for i := range spans {
		s := &spans[i]
		byKey[s.Layer+"|"+s.Key] = append(byKey[s.Layer+"|"+s.Key], s)
	}
	for _, l := range byKey {
		sort.Slice(l, func(i, j int) bool { return l[i].Start < l[j].Start })
	}
	used := map[*span]bool{}
	within := func(layer, key string, lo, hi int64) *span {
		for _, s := range byKey[layer+"|"+key] {
			if s.Start >= lo && s.End <= hi && !used[s] {
				used[s] = true
				return s
			}
		}
		return nil
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].start < samples[j].start })
	var a attribution
	var edge, fab, svc float64
	id := 0
	for req, s := range samples {
		if !s.ok {
			continue
		}
		co := within("fabric", s.key, s.start, s.end)
		var wk *span
		if co != nil {
			wk = within("service", s.key, co.Start, co.End)
		}
		if wk == nil {
			a.unmatched++
			continue
		}
		a.matched++
		rt := float64(s.end - s.start)
		edge += rt - float64(co.dur())
		fab += float64(co.dur() - wk.dur())
		svc += float64(wk.dur())
		if len(a.spans)+3 <= maxSpans {
			cs := span{ID: id + 1, Req: req + 1, Layer: "client", Name: "PostJSON", Key: s.key, Start: s.start, End: s.end}
			c2, w2 := *co, *wk
			c2.ID, c2.Parent, c2.Req = id+2, id+1, req+1
			w2.ID, w2.Parent, w2.Req = id+3, id+2, req+1
			a.spans = append(a.spans, cs, c2, w2)
			id += 3
		}
	}
	a.total = 3 * a.matched
	if a.matched > 0 {
		m := float64(a.matched) * 1000
		a.edge, a.fabric, a.service = edge/m, fab/m, svc/m
	}
	return a
}

// clusterCounters reads hedge and failover legs from /v1/cluster.
func clusterCounters(cl *client.Client, url string) (float64, float64, error) {
	res, err := cl.Get(context.Background(), url+"/v1/cluster")
	if err != nil {
		return 0, 0, err
	}
	var cs fabric.ClusterState
	if err := json.Unmarshal(res.Body, &cs); err != nil {
		return 0, 0, fmt.Errorf("/v1/cluster: %w", err)
	}
	var h, f float64
	for _, w := range cs.Workers {
		h += float64(w.Routing.Hedges)
		f += float64(w.Routing.Failovers)
	}
	return h, f, nil
}

// keyMicros times the content-address derivation the coordinator and
// workers run on each request, over the workload's own requests.
func (r *serveRun) keyMicros(n int) float64 {
	var reqs []request
	if r.churn {
		for i := 0; i < min(n, 256); i++ {
			req, err := r.src.request(i)
			if err != nil {
				r.chk.op(err)
				continue
			}
			reqs = append(reqs, req)
		}
	} else {
		reqs = r.hot
	}
	if len(reqs) == 0 {
		return 0
	}
	const calls = 4096
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		if _, err := reqs[i%len(reqs)].deriveKey(); err != nil {
			r.chk.op(err)
			return 0
		}
	}
	return float64(time.Since(t0).Microseconds()) / calls
}

// simMillis runs sim.Run directly on a seeded subset of the churn
// requests, with the configuration and scheduler settings /v1/sim uses.
func (r *serveRun) simMillis(issued int) float64 {
	rng := rand.New(rand.NewSource(r.o.Seed + 13))
	suite := workload.Record(1)
	var total float64
	runs := 0
	for k := 0; k < r.sp.simSamples && issued > 0; k++ {
		req, err := r.src.request(rng.Intn(issued))
		if err != nil {
			r.chk.op(err)
			continue
		}
		cfg, err := experiments.BuildConfig(req.sim.Config)
		if err != nil {
			r.chk.op(err)
			continue
		}
		t0 := time.Now()
		_, err = sim.Run(cfg, workload.ReplayProcesses(suite), sched.Config{
			Level: 8, TimeSlice: sched.DefaultTimeSlice, MaxInstructions: req.sim.MaxInstructions,
		})
		total += time.Since(t0).Seconds() * 1000
		runs++
		r.chk.op(err)
	}
	return per(total, float64(runs))
}
