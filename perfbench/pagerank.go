package main

import (
	"context"
	"fmt"
	"time"

	graphbolt "repro"
	"repro/internal/gen"
)

// pageRankInputs: a 16,384-vertex / 131,072-edge RMAT base and
// 1000-edge batches, a quarter of them deletions. At Tolerance 0 every
// batch is refined through all 10 iterations.
var pageRankInputs = inputSpec{
	vertices:       1 << 14,
	edges:          1 << 17,
	weights:        gen.WeightUnit,
	batchEdges:     1000,
	deleteFraction: 0.25,
}

// pageRankTolerance is the relative error the engine's values may carry
// against the reference: refinement adds and retracts contributions in
// a different order than a from-scratch sum, so the last bits differ.
const pageRankTolerance = 1e-9

// The run is a fixed number of batches, so the graph a run ends on is
// the same however fast the program refines: pageRankWarmup batches
// before the measured phase, then pageRankRate batches per second of
// --seconds. A batch takes about 100 ms on two cores, so the measured
// phase lasts about --seconds there; a faster program ends it sooner.
const (
	pageRankWarmup = 10
	pageRankRate   = 10
)

// runPageRank is the pagerank-refine workload: one producer calls
// SubmitWait in a closed loop on an in-memory PageRank server. No WAL,
// HTTP or follower runs, so refinement in core and parallel sets the
// pace.
func runPageRank(cfg config) (*report, error) {
	rep := newReport()
	spec := pageRankInputs
	base := baseEdges(cfg.seed, spec)
	n := spec.vertices + spec.extraVertices
	tr := newTracing(cfg.trace)
	ctx := context.Background()

	var srv *graphbolt.Server[float64, float64]
	setup := &setupTimer{tr: tr, start: func() (func(), error) {
		t0 := time.Now()
		g, err := graphbolt.BuildGraph(n, base)
		tr.addSetup("graph.build", t0)
		if err != nil {
			return nil, err
		}
		eng, err := graphbolt.NewEngine(g, graphbolt.NewPageRank(), graphbolt.Options{MaxIterations: 10, Tracer: tr.Tracer()})
		if err != nil {
			return nil, err
		}
		eng.Run()
		s := graphbolt.NewServer(eng, graphbolt.ServerOptions{
			Flight:  tr.Recorder(),
			OnApply: func(ap graphbolt.Applied) { tr.addBatch(ap.Trace) },
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
	var (
		visible     []float64
		edges       int
		sent        int
		failed      int
		measureFrom time.Time
		lastVisible time.Time
	)
	for sent < pageRankWarmup+cfg.seconds*pageRankRate {
		if sent == pageRankWarmup {
			// The loop is closed, so no warm-up batch is still in the
			// program: the measured phase, and the trace deltas, start
			// here.
			tr.markMeasured()
			measureFrom = time.Now()
		}
		b := stream.batch()
		t0 := time.Now()
		snap, err := srv.SubmitWait(ctx, b)
		sent++
		if err != nil {
			failed++
			rep.failf("batch %d: %v", sent-1, err)
			continue
		}
		if sent > pageRankWarmup {
			visible = append(visible, ms(snap.PublishedAt.Sub(t0)))
			edges += batchEdges(b)
			lastVisible = snap.PublishedAt
		}
	}
	if len(visible) == 0 {
		return nil, fmt.Errorf("no batch completed in the measured phase")
	}
	rep.ops = append(rep.ops, opCount{kind: "submits", attempted: sent, failed: failed})
	rep.metrics["ingest_edges_per_s"] = float64(edges) / lastVisible.Sub(measureFrom).Seconds()
	rep.metrics["visible_ms_p50"] = quantile(visible, 0.5)
	rep.metrics["visible_ms_p90"] = quantile(visible, 0.9)
	rep.notef("measured batches: %d in %.3f s", len(visible), lastVisible.Sub(measureFrom).Seconds())
	// The stream's live-edge list and the base are the benchmark's, not
	// the program's: drop them before reading the heap, and draw the
	// base again after.
	stream, base = nil, nil
	rep.metrics["heap_live_mb"] = heapLiveMiB()
	base = baseEdges(cfg.seed, spec)

	if cfg.trace {
		d := tr.delta()
		commonLayers(rep, tr, d, len(visible))
		rep.metrics["core.tracked_mb"] = float64(srv.Snapshot().Stats.TrackedSnapshotBytes) / mib
		rep.metrics["qcache.topk_miss_ms_p50"] = topKMissMS(retainedSnapshots(srv))
	}

	// Output checks: the published values against textbook PageRank over
	// the benchmark's own mirror of the stream, and the edge count.
	mr, err := mirrorAfter(cfg.seed, spec, base, sent)
	if err != nil {
		return nil, err
	}
	snap := srv.Snapshot()
	if got := snap.Graph.NumEdges(); got != int64(mr.m) {
		rep.failf("edge count %d, mirror has %d", got, mr.m)
	}
	if err := compareRelative(snap.Values, referencePageRank(mr, 0.85, 10), pageRankTolerance); err != nil {
		rep.failf("PageRank values: %v", err)
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
