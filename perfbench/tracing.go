package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	graphbolt "repro"
	"repro/internal/flight"
	"repro/internal/obs"
)

// Trace IDs the benchmark mints for spans that no batch owns. The
// program's own trace IDs stay below these tags.
const (
	setupTraceTag uint64 = 1 << 63
	readTraceTag  uint64 = 1 << 62
	shipTraceTag  uint64 = 1 << 61
)

// span is one recorded interval. Parent is the ID of the smallest span
// of the same trace that encloses it, filled in when the spans are
// written out.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Trace  uint64 `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_unix_ns"`
	End    int64  `json:"end_unix_ns"`
}

// tracing holds the hooks a traced run turns on: the obs registry, a
// flight recorder, an engine Tracer, and the spans the benchmark records
// around its calls into the program. A nil *tracing is the untraced run:
// every hook it hands out is nil, so the program runs with its
// instrumentation off.
type tracing struct {
	reg    *graphbolt.MetricsRegistry
	rec    *graphbolt.FlightRecorder
	tracer *graphbolt.Tracer

	setupTrace atomic.Uint64 // trace of engine spans outside any batch

	mu      sync.Mutex
	spans   []span
	batches []flight.BatchTrace // completed applies, in completion order
	before  obs.Snapshot
	since   time.Time
}

func newTracing(on bool) *tracing {
	if !on {
		return nil
	}
	t := &tracing{reg: graphbolt.EnableMetrics()}
	t.rec = graphbolt.NewFlightRecorder(graphbolt.FlightOptions{
		Depth:      1 << 17,
		TraceDepth: 1 << 14,
		Logger:     discardLogger(),
		Metrics:    t.reg,
	})
	t.tracer = graphbolt.NewTracer(obs.FuncSink(t.enginePhase))
	return t
}

func discardLogger() *slog.Logger { return slog.New(slog.DiscardHandler) }

func (t *tracing) Tracer() *graphbolt.Tracer {
	if t == nil {
		return nil
	}
	return t.tracer
}

func (t *tracing) Recorder() *graphbolt.FlightRecorder {
	if t == nil {
		return nil
	}
	return t.rec
}

func (t *tracing) Registry() *graphbolt.MetricsRegistry {
	if t == nil {
		return nil
	}
	return t.reg
}

// enginePhase receives the engine's and the journal's phase spans. The
// flight recorder knows which batch is being applied; outside a batch
// the span belongs to the current set-up.
func (t *tracing) enginePhase(name string, start time.Time, d time.Duration) {
	trace := t.rec.ActiveTrace()
	if trace == 0 {
		trace = t.setupTrace.Load()
	}
	t.add(name, trace, start, start.Add(d))
}

func (t *tracing) add(name string, trace uint64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Trace: trace, Name: name, Start: start.UnixNano(), End: end.UnixNano()})
	t.mu.Unlock()
}

// addSetup records a span of the current set-up.
func (t *tracing) addSetup(name string, start time.Time) {
	if t == nil {
		return
	}
	t.add(name, t.setupTrace.Load(), start, time.Now())
}

// beginSetup opens set-up repetition i and returns a function closing it.
func (t *tracing) beginSetup(i int) func() {
	if t == nil {
		return func() {}
	}
	id := setupTraceTag | uint64(i)
	t.setupTrace.Store(id)
	start := time.Now()
	return func() {
		t.add("setup", id, start, time.Now())
		t.setupTrace.Store(0)
	}
}

// markMeasured starts the measured phase: registry deltas and span
// durations count from here.
func (t *tracing) markMeasured() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.since = time.Now()
	t.mu.Unlock()
	t.before = t.reg.Snapshot()
}

func (t *tracing) delta() regDelta { return regDelta{before: t.before, after: t.reg.Snapshot()} }

// addBatch records one completed apply's phase timeline as a "batch"
// span from enqueue to publication with its phases laid end to end
// inside it, in the order the loop runs them.
func (t *tracing) addBatch(bt flight.BatchTrace) {
	if t == nil || bt.Seq == 0 {
		return
	}
	t.mu.Lock()
	t.batches = append(t.batches, bt)
	t.mu.Unlock()
	t.add("batch", bt.ID, bt.EnqueuedAt, bt.CompletedAt)
	at := bt.EnqueuedAt
	for _, ph := range []struct {
		name string
		d    time.Duration
	}{
		{"queue", bt.Phases.QueueWait},
		{"coalesce", bt.Phases.Coalesce},
		{"validate", bt.Phases.Validate},
		{"journal", bt.Phases.Journal},
		{"apply", bt.Phases.Apply},
		{"publish", bt.Phases.Publish},
	} {
		t.add(ph.name, bt.ID, at, at.Add(ph.d))
		at = at.Add(ph.d)
	}
}

// batchesSince counts the submitted batches published since the mark.
func (t *tracing) batchesSince() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, bt := range t.batches {
		if !bt.CompletedAt.Before(t.since) {
			n += len(bt.Traces)
		}
	}
	return n
}

// phaseMS returns one BatchTrace phase, in ms, over the applies
// completed in the measured phase.
func (t *tracing) phaseMS(get func(flight.Phases) time.Duration) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, bt := range t.batches {
		if !bt.CompletedAt.Before(t.since) {
			out = append(out, ms(get(bt.Phases)))
		}
	}
	return out
}

// spanMS returns the durations, in ms, of the named spans that started
// in the measured phase (all of them when setup is true).
func (t *tracing) spanMS(name string, setup bool) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && (setup || s.Start >= t.since.UnixNano()) {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// events returns the flight-ring events of one kind recorded in the
// measured phase.
func (t *tracing) events(k flight.Kind) []flight.Event {
	var out []flight.Event
	for _, e := range t.rec.Snapshot() {
		if e.Kind == k && e.At >= t.since.UnixNano() {
			out = append(out, e)
		}
	}
	return out
}

// middleware times every request through h as a "query" span.
func (t *tracing) middleware(h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	var n atomic.Uint64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		t.add("query", readTraceTag|n.Add(1), start, time.Now())
	})
}

// write links every span to its smallest enclosing span of the same
// trace and writes them as JSON lines.
func (t *tracing) write(path string) (int, error) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.Trace != b.Trace {
			return a.Trace < b.Trace
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.End > b.End
	})
	var stack []span
	for i := range spans {
		s := &spans[i]
		s.ID = uint64(i + 1)
		for len(stack) > 0 {
			top := stack[len(stack)-1]
			if top.Trace == s.Trace && top.Start <= s.Start && s.End <= top.End {
				break
			}
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			s.Parent = stack[len(stack)-1].ID
		}
		stack = append(stack, *s)
	}

	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	if err := writeSpans(w, spans); err != nil {
		f.Close()
		return 0, err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	return len(spans), nil
}

func writeSpans(w io.Writer, spans []span) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return nil
}
