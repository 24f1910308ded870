package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	iofs "io/fs"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/mmu"
	"repro/internal/store"
	"repro/internal/trace"
)

// span is one timed call across a layer boundary. Spans of one request
// share Req; Parent links a span to the span that caused it.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Req    int    `json:"req,omitempty"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Key    string `json:"key,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans and boundary counters in memory until the run
// ends. Wrappers consult on, so one set of wrappers serves both the
// untraced and the traced windows of a traced run.
type tracer struct {
	origin time.Time
	on     atomic.Bool

	mu    sync.Mutex
	spans []span

	// store.File boundary counters.
	reads, readNs          atomic.Int64
	writes, writeNs, wrote atomic.Int64
	syncs, syncNs          atomic.Int64
	edgeConns, legConns    atomic.Int64
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans
	t.spans = nil
	return s
}

// handler times h, naming the span by the content key the response
// carries in X-Cache-Key (set by workers, relayed by the coordinator).
func (t *tracer) handler(layer, name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := t.now()
		h.ServeHTTP(w, r)
		t.add(span{Layer: layer, Name: name, Key: w.Header().Get("X-Cache-Key"), Start: start, End: t.now()})
	})
}

// connCounter counts new TCP connections a listener accepts while
// tracing is on.
func (t *tracer) connCounter(n *atomic.Int64) func(net.Conn, http.ConnState) {
	return func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew && t.on.Load() {
			n.Add(1)
		}
	}
}

// timedFS wraps the store's filesystem to time reads, appends and
// fsyncs of segment files.
type timedFS struct {
	store.FS
	t *tracer
}

func (f timedFS) OpenFile(name string, flag int, perm iofs.FileMode) (store.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return timedFile{file, f.t}, nil
}

type timedFile struct {
	store.File
	t *tracer
}

func (f timedFile) ReadAt(p []byte, off int64) (int, error) {
	if !f.t.on.Load() {
		return f.File.ReadAt(p, off)
	}
	t0 := time.Now()
	n, err := f.File.ReadAt(p, off)
	f.t.readNs.Add(int64(time.Since(t0)))
	f.t.reads.Add(1)
	return n, err
}

func (f timedFile) Write(p []byte) (int, error) {
	if !f.t.on.Load() {
		return f.File.Write(p)
	}
	t0 := time.Now()
	n, err := f.File.Write(p)
	f.t.writeNs.Add(int64(time.Since(t0)))
	f.t.writes.Add(1)
	f.t.wrote.Add(int64(n))
	return n, err
}

func (f timedFile) Sync() error {
	if !f.t.on.Load() {
		return f.File.Sync()
	}
	t0 := time.Now()
	err := f.File.Sync()
	f.t.syncNs.Add(int64(time.Since(t0)))
	f.t.syncs.Add(1)
	return err
}

// engineAcc accumulates the exact engine's boundary timings: time in
// the trace cursor's Batch (decode) and in the system's StepBatch.
type engineAcc struct {
	batchNs               int64
	stepNs, steps, events int64
}

// timedStream is a trace.BatchStream over a packed-trace cursor that
// times every Batch call.
type timedStream struct {
	c   *trace.Cursor
	acc *engineAcc
}

func (s *timedStream) Next(ev *trace.Event) bool { return s.c.Next(ev) }

func (s *timedStream) Batch(max int) []trace.Event {
	t0 := time.Now()
	b := s.c.Batch(max)
	s.acc.batchNs += int64(time.Since(t0))
	return b
}

func (s *timedStream) Skip(n int) { s.c.Skip(n) }

// timedTarget is a sched.BatchTarget over a core.System that times
// every StepBatch call.
type timedTarget struct {
	*core.System
	acc *engineAcc
}

func (t timedTarget) StepBatch(pid mmu.PID, evs []trace.Event) (int, error) {
	t0 := time.Now()
	n, err := t.System.StepBatch(pid, evs)
	t.acc.stepNs += int64(time.Since(t0))
	t.acc.steps++
	t.acc.events += int64(n)
	return n, err
}

// writeSpans writes one span per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
