package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	graphbolt "repro"
	"repro/internal/flight"
	"repro/internal/gen"
	"repro/internal/partition"
)

// shardedInputs: the same RMAT shape as the other workloads, with small
// batches whose endpoints ignore shard ownership, so most batches span
// both shards. Half of each batch deletes, so the edge count stays where
// it started however many batches a run gets through: at a quarter the
// graph would double in ten seconds, and a faster program would be
// measured on a bigger graph than a slower one.
var shardedInputs = inputSpec{
	vertices:       1 << 14,
	edges:          1 << 17,
	weights:        gen.WeightSmallInt,
	batchEdges:     64,
	deleteFraction: 0.5,
}

// window is how many async Submits the producer keeps outstanding:
// enough to keep both shard loops busy and give coalescing batches to
// fold.
const window = 16

// runShardedIngest is the sharded-ingest workload: an in-memory SSSP
// server with cfg.shards shards and coalescing on, fed by one producer
// that keeps a fixed window of outstanding Submits.
func runShardedIngest(cfg config) (*report, error) {
	rep := newReport()
	spec := shardedInputs
	base := baseEdges(cfg.seed, spec)
	n := spec.vertices + spec.extraVertices
	tr := newTracing(cfg.trace)
	ctx := context.Background()

	var (
		mu   sync.Mutex
		done = map[uint64]time.Time{} // trace ID -> publication
	)
	onApply := func(ap graphbolt.Applied) {
		mu.Lock()
		for _, id := range ap.Trace.Traces {
			done[id] = ap.Trace.CompletedAt
		}
		mu.Unlock()
		tr.addBatch(ap.Trace)
	}
	var srv *graphbolt.Server[float64, float64]
	setup := &setupTimer{tr: tr, start: func() (func(), error) {
		t0 := time.Now()
		g, err := graphbolt.BuildGraph(n, base)
		tr.addSetup("graph.build", t0)
		if err != nil {
			return nil, err
		}
		eng, err := graphbolt.NewEngine(g, graphbolt.NewSSSP(ssspSource), graphbolt.Options{MaxIterations: 10, Tracer: tr.Tracer()})
		if err != nil {
			return nil, err
		}
		s := graphbolt.NewServer(eng, graphbolt.ServerOptions{
			Shards:  cfg.shards,
			Flight:  tr.Recorder(),
			OnApply: onApply,
			Logger:  discardLogger(),
		})
		srv = s
		return func() { s.Close(ctx) }, nil
	}}
	stop, err := setup.run(setupBefore, true)
	if err != nil {
		return nil, err
	}

	stream := newBatchStream(cfg.seed, spec, base)
	measureFrom := time.Now().Add(warmup)
	end := measureFrom.Add(time.Duration(cfg.seconds) * time.Second)
	var (
		traces    []uint64
		submitted []time.Time
		inflight  []*graphbolt.SubmitTicket
		failed    int
		maxDepth  int
		measuring bool
	)
	wait := func(tk *graphbolt.SubmitTicket) {
		if _, err := tk.Wait(ctx); err != nil {
			failed++
			rep.failf("batch ticket: %v", err)
		}
	}
	for time.Now().Before(end) {
		if !measuring && !time.Now().Before(measureFrom) {
			// Let the warm-up batches finish, so the measured phase,
			// and the trace deltas, hold only batches submitted in it;
			// then give it its full length.
			for _, tk := range inflight {
				wait(tk)
			}
			inflight = inflight[:0]
			tr.markMeasured()
			measuring = true
			measureFrom = time.Now()
			end = measureFrom.Add(time.Duration(cfg.seconds) * time.Second)
		}
		if len(inflight) == window {
			wait(inflight[0])
			inflight = inflight[1:]
		}
		b := stream.batch()
		t0 := time.Now()
		tk, err := srv.Submit(ctx, b)
		submitted = append(submitted, t0)
		if err != nil {
			failed++
			traces = append(traces, 0)
			rep.failf("submit %d: %v", len(traces)-1, err)
		} else {
			traces = append(traces, tk.Trace())
			inflight = append(inflight, tk)
		}
		if d := srv.QueueDepth(); d > maxDepth {
			maxDepth = d
		}
	}
	sent := len(traces)
	rep.notef("backlog at end of load: window %d outstanding, queue %d; deepest queue seen %d", len(inflight), srv.QueueDepth(), maxDepth)
	for _, tk := range inflight {
		wait(tk)
	}
	rep.ops = append(rep.ops, opCount{kind: "submits", attempted: sent, failed: failed})

	var visible []float64
	var edges int
	var last time.Time
	mu.Lock()
	for i := 0; i < sent; i++ {
		at, ok := done[traces[i]]
		if !ok || submitted[i].Before(measureFrom) {
			continue
		}
		visible = append(visible, ms(at.Sub(submitted[i])))
		edges += spec.batchEdges
		if at.After(last) {
			last = at
		}
	}
	// What the benchmark kept per batch grows with the batches a run
	// gets through, and the stream's live-edge list and the base are the
	// benchmark's too: drop them before reading the program's heap, and
	// draw the base again after.
	done = map[uint64]time.Time{}
	mu.Unlock()
	traces, submitted, stream, base = nil, nil, nil, nil
	if len(visible) == 0 {
		return nil, fmt.Errorf("no batch completed in the measured phase")
	}
	rep.metrics["ingest_edges_per_s"] = float64(edges) / last.Sub(measureFrom).Seconds()
	rep.metrics["visible_ms_p50"] = quantile(visible, 0.5)
	rep.metrics["visible_ms_p90"] = quantile(visible, 0.9)
	rep.notef("measured batches: %d", len(visible))
	rep.metrics["heap_live_mb"] = heapLiveMiB()
	base = baseEdges(cfg.seed, spec)

	if cfg.trace {
		d := tr.delta()
		var shardApply []float64
		for _, e := range tr.events(flight.KindApplied) {
			shardApply = append(shardApply, float64(e.A)/1e6)
		}
		commonLayers(rep, tr, d, len(visible))
		rep.metrics["core.tracked_mb"] = d.gauge("graphbolt_engine_tracked_snapshot_bytes") / mib
		rep.metrics["qcache.topk_miss_ms_p50"] = topKMissMS(retainedSnapshots(srv))
		cross, single := d.counter("graphbolt_shard_cross_batches_total"), d.counter("graphbolt_shard_single_batches_total")
		rep.metrics["partition.cross_batches"] = float64(cross)
		rep.metrics["partition.single_batches"] = float64(single)
		rep.metrics["partition.cross_batch_ratio"] = ratio(float64(cross), float64(cross+single))
		rep.metrics["partition.barrier_wait_ms_p50"] = histQuantile(d.histogram("graphbolt_shard_barrier_wait_seconds"), 0.5) * 1000
		rep.metrics["partition.shard_apply_ms_p50"] = median(shardApply)
	}

	// Output checks: the edge count, and the distances against
	// hop-bounded Bellman-Ford over the mirror. A sharded server matches
	// it exactly only while no edge crosses shards: each shard refines
	// over the edges into its own vertices, so an edge whose endpoints
	// have different owners carries its source's shard-local distance.
	// The distances must equal either the single-engine reference or
	// that per-shard model, exactly; the run prints which one, and how
	// many vertices differ from the single engine.
	mr, err := mirrorAfter(cfg.seed, spec, base, sent)
	if err != nil {
		return nil, err
	}
	snap := srv.Snapshot()
	if got := snap.Graph.NumEdges(); got != int64(mr.m) {
		rep.failf("edge count %d, mirror has %d", got, mr.m)
	}
	single := referenceSSSP(mr, ssspSource, 10)
	differ := 0
	for v := range single {
		if math.Float64bits(snap.Values[v]) != math.Float64bits(single[v]) {
			differ++
		}
	}
	if differ == 0 {
		rep.notef("SSSP distances equal the single-engine reference")
	} else {
		pt, err := partition.New(cfg.shards, nil)
		if err != nil {
			return nil, err
		}
		if err := compareExact(snap.Values, referenceSSSPPartitioned(mr, ssspSource, 10, cfg.shards, pt.Owner)); err != nil {
			rep.failf("SSSP distances match neither the single-engine reference (%d vertices differ) nor the per-shard one: %v", differ, err)
		} else {
			rep.notef("SSSP distances equal the per-shard reference; %d of %d vertices differ from a single engine's", differ, len(single))
		}
	}

	stop()
	if _, err := setup.run(setupAfter, false); err != nil {
		return nil, err
	}
	rep.metrics["setup_s"] = setup.median()
	if cfg.trace {
		p50, alloc, err := replayApply(cfg.seed, spec, base, sent)
		if err != nil {
			return nil, err
		}
		rep.metrics["graph.apply_ms_p50"] = p50
		rep.metrics["graph.apply_alloc_mb"] = alloc
		if err := finishTrace(rep, tr, cfg); err != nil {
			return nil, err
		}
	}
	return rep, nil
}
