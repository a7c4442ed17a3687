package main

import (
	"fmt"
	"time"

	graphbolt "repro"
)

// commonLayers fills the layer metrics shared by the single-loop
// workloads from the BatchTraces, the engine spans and the registry.
func commonLayers(rep *report, tr *tracing, d regDelta, batches int) {
	rep.metrics["graph.build_s"] = median(tr.spanMS("graph.build", true)) / 1000
	rep.metrics["core.run_s"] = median(tr.spanMS("run", true)) / 1000
	rep.metrics["core.apply_ms_p50"] = median(tr.spanMS("apply_batch", false))
	rep.metrics["core.publish_ms_p50"] = median(tr.phaseMS(func(p graphbolt.TracePhases) time.Duration { return p.Publish }))
	rep.metrics["serve.queue_wait_ms_p50"] = median(tr.phaseMS(func(p graphbolt.TracePhases) time.Duration { return p.QueueWait }))
	rep.metrics["serve.coalesce_ms_p50"] = median(tr.phaseMS(func(p graphbolt.TracePhases) time.Duration { return p.Coalesce }))
	rep.metrics["wal.journal_ms_p50"] = median(tr.phaseMS(func(p graphbolt.TracePhases) time.Duration { return p.Journal }))
	rep.metrics["core.refine_ms_p50"] = median(tr.spanMS("refine", false))
	rep.metrics["core.hybrid_ms_p50"] = median(tr.spanMS("hybrid", false))
	rep.metrics["core.edge_computations_per_batch"] = ratio(float64(d.counter("graphbolt_engine_edge_computations_total")), float64(batches))
	rep.metrics["parallel.worker_utilization"] = histMean(d.histogram("graphbolt_parallel_worker_utilization"))
	rep.metrics["serve.batches_per_apply"] = ratio(float64(d.counter("graphbolt_serve_submitted_batches_total")), float64(d.counter("graphbolt_serve_applied_batches_total")))
}

// retainedSnapshots returns every generation the server still retains.
func retainedSnapshots[A any](srv *graphbolt.Server[float64, A]) []*graphbolt.ResultSnapshot[float64] {
	oldest, newest := srv.RetainedGenerations()
	var out []*graphbolt.ResultSnapshot[float64]
	for g := oldest; g <= newest && g > 0; g++ {
		if s, err := srv.SnapshotAt(g); err == nil {
			out = append(out, s)
		}
	}
	return out
}

// topKMissMS times uncached top-100 queries on the given snapshots,
// five per snapshot, and returns the median in ms.
func topKMissMS(snaps []*graphbolt.ResultSnapshot[float64]) float64 {
	var times []float64
	for _, s := range snaps {
		for i := 0; i < 5; i++ {
			t0 := time.Now()
			graphbolt.TopK(nil, s, 100)
			times = append(times, ms(time.Since(t0)))
		}
	}
	return median(times)
}

// finishTrace writes the spans out and reports how many there were.
func finishTrace(rep *report, tr *tracing, cfg config) error {
	path := fmt.Sprintf(".bench_build/perfbench/spans-%s-seed%d.jsonl", cfg.workload, cfg.seed)
	n, err := tr.write(path)
	if err != nil {
		return err
	}
	rep.notef("spans: %d written to %s", n, path)
	return nil
}
