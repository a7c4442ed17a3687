// Command perfbench is the repository's benchmark. It runs one named
// workload against the program for a fixed time, checks the program's
// outputs against the benchmark's own references, and prints one JSON
// object as its last line of output:
//
//	go run . --workload pagerank-refine --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the object holds the end-to-end metrics, measured with
// the program's instrumentation off. With --trace 1 it holds the
// per-layer metrics, measured with the obs registry, a flight recorder,
// an engine Tracer and the benchmark's own spans turned on; the spans are
// written to .bench_build/perfbench/. See README.md for the workloads,
// the metrics and which end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/graph"
)

// config is one run's command line.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	shards   int
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the end-to-end metrics every workload reports.
var endToEnd = map[string]string{
	"setup_s":            "s",
	"ingest_edges_per_s": "edges/s",
	"visible_ms_p50":     "ms",
	"heap_live_mb":       "MiB",
}

// ungated lists figures every workload measures and prints but that are
// in neither result line: on a shared host the tail of a 10 ms open-loop
// latency follows the CPU time the hypervisor steals (its spread between
// runs reached half its median), so it cannot carry a bound.
var ungated = map[string]string{
	"visible_ms_p90": "ms",
}

// perLayer lists the per-layer metrics every traced run reports. A layer
// the workload does not run reads 0.
var perLayer = map[string]string{
	"graph.build_s":                    "s",
	"graph.apply_ms_p50":               "ms",
	"graph.apply_alloc_mb":             "MiB",
	"core.run_s":                       "s",
	"core.apply_ms_p50":                "ms",
	"core.refine_ms_p50":               "ms",
	"core.hybrid_ms_p50":               "ms",
	"core.edge_computations_per_batch": "count",
	"core.tracked_mb":                  "MiB",
	"core.publish_ms_p50":              "ms",
	"parallel.worker_utilization":      "ratio",
	"serve.queue_wait_ms_p50":          "ms",
	"serve.coalesce_ms_p50":            "ms",
	"serve.batches_per_apply":          "ratio",
	"wal.journal_ms_p50":               "ms",
	"wal.fsync_ms_p50":                 "ms",
	"wal.bytes_per_record":             "B",
	"durable.checkpoint_ms_p50":        "ms",
	"qcache.hit_ratio":                 "ratio",
	"qcache.hits":                      "count",
	"qcache.lookups":                   "count",
	"qcache.topk_miss_ms_p50":          "ms",
	"replica.read_ms_p50":              "ms",
	"replica.read_ms_p99":              "ms",
	"replica.api_ms_p50":               "ms",
	"replica.api_ms_p99":               "ms",
	"replica.follower_lag_ms_p50":      "ms",
	"replica.follower_lag_ms_p90":      "ms",
	"replica.ship_ms_p50":              "ms",
	"replica.follower_apply_ms_p50":    "ms",
	"replica.resumes":                  "count",
	"partition.barrier_wait_ms_p50":    "ms",
	"partition.cross_batch_ratio":      "ratio",
	"partition.cross_batches":          "count",
	"partition.single_batches":         "count",
	"partition.shard_apply_ms_p50":     "ms",
}

// opCount is one kind of operation a run attempted.
type opCount struct {
	kind              string
	attempted, failed int
}

// report is what a workload run found.
type report struct {
	problems []string // failed output checks
	ops      []opCount
	metrics  map[string]float64
	notes    []string // printed before the result line
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

func (r *report) failf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(config) (*report, error){
	"pagerank-refine": runPageRank,
	"sssp-replicated": runSSSPReplicated,
	"sharded-ingest":  runShardedIngest,
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: pagerank-refine, sssp-replicated or sharded-ingest")
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 measures the per-layer metrics with the program's instrumentation on")
	flag.IntVar(&cfg.shards, "shards", 2, "sharded-ingest only: shard count (1 is the single-loop reference)")
	flag.Parse()
	cfg.trace = *trace == 1

	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (*trace != 0 && *trace != 1) || cfg.shards < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds >= 1, --trace 0|1, --shards >= 1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	stealBefore, stealOK := readSteal()
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	if stealAfter, ok := readSteal(); ok && stealOK {
		rep.notef("host: CPU time stolen by the hypervisor during the run: %.1f s", stealAfter-stealBefore)
	}
	if err := printResult(cfg, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// readSteal returns the CPU time, in seconds, the hypervisor has taken
// from this machine's CPUs (the steal column of /proc/stat). On a shared
// host it explains much of the spread between runs; false where the
// file is missing or unreadable.
func readSteal() (float64, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, false
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0, false
	}
	return ticks / 100, true // USER_HZ
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printResult prints the notes, the per-kind operation counts, any
// failed checks, and the result line.
func printResult(cfg config, rep *report) error {
	fmt.Printf("host: %d CPUs, GOMAXPROCS=%d, %s; workload %s, seed %d, %d s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cfg.workload, cfg.seed, cfg.seconds)
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	attempted, failed := 0, 0
	for _, op := range rep.ops {
		fmt.Printf("ops %s: attempted %d, failed %d\n", op.kind, op.attempted, op.failed)
		attempted += op.attempted
		failed += op.failed
	}
	for _, p := range rep.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
	if attempted < 1 {
		return fmt.Errorf("%s attempted no operations", cfg.workload)
	}

	catalogue := endToEnd
	if cfg.trace {
		catalogue = perLayer
	}
	// Figures measured but not in this mode's result line: the traced
	// run's end-to-end figures, for its overhead against the untraced
	// runs' medians, and the untraced run's tail and replica figures.
	for _, units := range []map[string]string{endToEnd, ungated, perLayer} {
		for _, name := range sortedKeys(units) {
			if v, ok := rep.metrics[name]; ok && catalogue[name] == "" {
				fmt.Printf("also measured %s: %.6g %s\n", name, v, units[name])
			}
		}
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: len(rep.problems) == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for name, unit := range catalogue {
		out.Metrics[name] = metric{Value: rep.metrics[name], Unit: unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func sortedKeys(m map[string]string) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// Set-up is timed setupBefore times before the measured phase, the last
// of them being the system measured, and setupAfter times after it, so
// the median setup_s samples the host at both ends of the run.
const (
	setupBefore = 5
	setupAfter  = 6
)

// warmup is how long a timed run drives load before the measured phase,
// so the heap has grown and the first batches' one-off costs are behind
// it. pagerank-refine counts batches instead (pageRankWarmup).
const warmup = time.Second

// setupTimer times a workload's set-up: from generated inputs in memory
// to the first servable snapshot.
type setupTimer struct {
	tr    *tracing
	start func() (stop func(), err error)
	secs  []float64
}

// run sets up n times, each from a collected heap so one run's garbage
// does not land in the next. It closes every system but, when keep is
// set, the last, whose stop function it returns.
func (st *setupTimer) run(n int, keep bool) (func(), error) {
	for i := 0; i < n; i++ {
		runtime.GC()
		end := st.tr.beginSetup(len(st.secs))
		t0 := time.Now()
		stop, err := st.start()
		st.secs = append(st.secs, time.Since(t0).Seconds())
		end()
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", len(st.secs), err)
		}
		if keep && i == n-1 {
			return stop, nil
		}
		stop()
	}
	return nil, nil
}

func (st *setupTimer) median() float64 { return median(st.secs) }

// heapLiveMiB is the Go heap in use after a forced collection.
func heapLiveMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / mib
}

// replayApply times graph.Graph.Apply on the benchmark's own graph
// chain: the base graph, then the first n batches of the seed's stream,
// at most 200. It returns the median time per apply and the MiB
// allocated per apply.
func replayApply(seed uint64, sp inputSpec, base []graph.Edge, n int) (p50ms, allocMiB float64, err error) {
	g, err := graph.Build(sp.vertices+sp.extraVertices, base)
	if err != nil {
		return 0, 0, err
	}
	bs := batches(seed, sp, base, min(n, 200))
	if len(bs) == 0 {
		return 0, 0, nil
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	times := make([]float64, 0, len(bs))
	for _, b := range bs {
		t0 := time.Now()
		g, _ = g.Apply(b)
		times = append(times, ms(time.Since(t0)))
	}
	runtime.ReadMemStats(&after)
	return median(times), float64(after.TotalAlloc-before.TotalAlloc) / mib / float64(len(bs)), nil
}
