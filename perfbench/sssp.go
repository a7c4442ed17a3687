package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	graphbolt "repro"
	"repro/internal/flight"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/health"
	"repro/internal/replica"
	"repro/internal/wal"
)

// ssspInputs: the same 16,384-vertex / 131,072-edge RMAT shape as
// pagerank-refine with integer weights 1..10, and small batches. One
// vertex above the RMAT range is never touched by an edge, so every
// generation has an unreached vertex whatever the seed.
var ssspInputs = inputSpec{
	vertices:       1 << 14,
	edges:          1 << 17,
	weights:        gen.WeightSmallInt,
	extraVertices:  1,
	batchEdges:     40,
	deleteFraction: 0.25,
}

const (
	ssspSource = 0
	writeRate  = 20 // batches a second, open loop
	// readRate is HTTP requests a second, open loop. It is not a
	// multiple of writeRate, so the reads' due times drift across the
	// writer's period instead of locking to it: at 200 a second every
	// batch was due at the same instant as a /v1/topk read, and its
	// latency swung between 8 and 14 ms from run to run with the host.
	readRate        = 197
	readRound       = 5  // a round is one /v1/topk and four /v1/value reads
	checkpointEvery = 50 // batches between leader checkpoints
	ssspRetain      = 8  // generations the leader keeps addressable
	drainTimeout    = 60 * time.Second
	// ssspProcs is the GOMAXPROCS the workload runs at. Its layers are
	// the serial ones (graph rewrite, journal, fsync, publication, query
	// path, shipping), and the leader and the follower apply each batch
	// at the same moment. At 2, on 2 vCPUs of a shared host, each of
	// their parallel loops waits for the slower vCPU: in alternated
	// 20-second runs the median latency's quartiles spread by 14% of it
	// at 2 and by 6% at 1. Parallel refinement is measured on
	// pagerank-refine.
	ssspProcs = 1
)

// topKs are the k values /v1/topk cycles through.
var topKs = []int{10, 100}

// hubVertices are the vertices whose id has at most two set bits. RMAT
// gives them the highest in-degrees, so they stand for the popular
// vertices readers ask about; each is reached from the source within a
// few hops in every generation.
func hubVertices(n int) []graph.VertexID {
	var out []graph.VertexID
	for v := 0; v < n; v++ {
		if bits.OnesCount(uint(v)) <= 2 {
			out = append(out, graph.VertexID(v))
		}
	}
	return out
}

// leader is a durable SSSP leader wired the way cmd/graphbolt wires a
// replicating one, plus one in-process follower streaming from it.
type leader struct {
	dir  string
	d    *graphbolt.DurableEngine[float64, float64]
	srv  *graphbolt.Server[float64, float64]
	rlog *graphbolt.ReplicationLog
	hs   *http.Server
	url  string

	f   *graphbolt.Follower[float64, float64]
	fhs *health.Tracker
}

func (l *leader) close(ctx context.Context) {
	if l.f != nil {
		l.f.Close(ctx)
	}
	if l.srv != nil {
		l.srv.Close(ctx)
	}
	if l.rlog != nil {
		l.rlog.Close()
	}
	if l.hs != nil {
		l.hs.Close()
	}
	os.RemoveAll(l.dir)
}

// timedApplier wraps the follower's RecordApplier to time each record's
// arrival (the end of its shipping) and its apply.
type timedApplier struct {
	inner   graphbolt.RecordApplier
	arrived func(seq uint64, at time.Time, apply time.Duration)
}

func (a *timedApplier) ApplyRecord(rec wal.Record) error {
	t0 := time.Now()
	err := a.inner.ApplyRecord(rec)
	a.arrived(rec.Seq, t0, time.Since(t0))
	return err
}

func (a *timedApplier) Seq() uint64 { return a.inner.Seq() }

// seqTimes records one time per sequence number.
type seqTimes struct {
	mu sync.Mutex
	at map[uint64]time.Time
}

func newSeqTimes() *seqTimes { return &seqTimes{at: map[uint64]time.Time{}} }

func (s *seqTimes) set(seq uint64, t time.Time) {
	s.mu.Lock()
	s.at[seq] = t
	s.mu.Unlock()
}

func (s *seqTimes) reset() {
	s.mu.Lock()
	s.at = map[uint64]time.Time{}
	s.mu.Unlock()
}

func (s *seqTimes) get(seq uint64) (time.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.at[seq]
	return t, ok
}

// runSSSPReplicated is the sssp-replicated workload: a durable SSSP
// leader journaling every batch with SyncEveryBatch, checkpointing, and
// shipping its log to one follower over loopback HTTP, under an open-loop
// writer and an open-loop reader at fixed rates well below capacity.
func runSSSPReplicated(cfg config) (*report, error) {
	runtime.GOMAXPROCS(ssspProcs)
	rep := newReport()
	spec := ssspInputs
	total := time.Duration(cfg.seconds)*time.Second + warmup
	nWrites := int(total.Seconds() * writeRate)
	nReads := int(total.Seconds()*readRate) / readRound * readRound
	base := baseEdges(cfg.seed, spec)
	n := spec.vertices + spec.extraVertices
	// The open loop's batches are fixed in number, and few: draw them
	// before the clock starts.
	writes := batches(cfg.seed, spec, base, nWrites)
	tr := newTracing(cfg.trace)
	ctx := context.Background()
	if err := os.MkdirAll(".bench_build/perfbench", 0o755); err != nil {
		return nil, err
	}

	var (
		published = newSeqTimes() // leader publication, by apply seq
		applied   = newSeqTimes() // follower publication, by record seq
		shipped   = newSeqTimes() // leader OnRecord, by record seq
		arrived   = newSeqTimes() // follower ApplyRecord entry, by record seq
		mu        sync.Mutex
		done      = map[uint64]time.Time{} // trace ID -> publication
		applyMS   []float64                // follower ApplyRecord, ms
	)
	onApply := func(ap graphbolt.Applied) {
		published.set(ap.Seq, ap.Trace.CompletedAt)
		mu.Lock()
		for _, id := range ap.Trace.Traces {
			done[id] = ap.Trace.CompletedAt
		}
		mu.Unlock()
		tr.addBatch(ap.Trace)
	}

	var l *leader
	setup := &setupTimer{tr: tr, start: func() (func(), error) {
		cur, err := startLeader(n, base, tr, onApply, func(rec wal.Record) {
			if tr != nil {
				shipped.set(rec.Seq, time.Now())
			}
		}, func(rec wal.Record) { applied.set(rec.Seq, time.Now()) },
			func(seq uint64, at time.Time, d time.Duration) {
				arrived.set(seq, at)
				mu.Lock()
				applyMS = append(applyMS, ms(d))
				mu.Unlock()
			})
		if err != nil {
			cur.close(ctx)
			return nil, err
		}
		l = cur
		return func() { cur.close(ctx) }, nil
	}}
	stop, err := setup.run(setupBefore, true)
	if err != nil {
		return nil, err
	}
	// Set-up repetitions published generations of their own.
	mu.Lock()
	done = map[uint64]time.Time{}
	applyMS = nil
	mu.Unlock()
	for _, st := range []*seqTimes{published, applied, shipped, arrived} {
		st.reset()
	}

	start := time.Now().Add(10 * time.Millisecond)
	measureFrom := start.Add(warmup)
	firstMeasured := int(warmup.Seconds() * writeRate) // due at measureFrom
	var (
		wg      sync.WaitGroup
		w       writerResult
		rd      readerResult
		backlog []string
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		w = runWriter(ctx, l, writes, start, time.Second/writeRate, func(i int) {
			if i == firstMeasured {
				tr.markMeasured()
			}
			// Once a second, note the backlog the run carries.
			if i%writeRate == 0 && i > 0 {
				backlog = append(backlog, fmt.Sprintf("%ds: queue %d, follower lag %d records",
					i/writeRate, l.srv.QueueDepth(), max(0, int64(l.f.LeaderSeq())-int64(l.f.AppliedSeq()))))
			}
		})
	}()
	go func() {
		defer wg.Done()
		rd = runReader(ctx, l, cfg.seed, nReads, start, time.Second/readRate, hubVertices(spec.vertices))
	}()
	wg.Wait()

	// The backlog when the schedule ends: a run whose backlog kept
	// growing was driven past what the leader sustains, and its
	// latencies describe the run's length, not the system.
	mu.Lock()
	outstanding := 0
	for _, id := range w.traces {
		if _, ok := done[id]; !ok {
			outstanding++
		}
	}
	mu.Unlock()
	queue := l.srv.QueueDepth()
	lagRecords := uint64(nWrites) - l.f.AppliedSeq()
	rep.notef("backlog at end of schedule: queue %d, outstanding tickets %d, follower lag %d records", queue, outstanding, lagRecords)
	for _, b := range backlog {
		rep.notef("backlog at %s", b)
	}
	rep.notef("generator lateness: writes p50 %.3f ms max %.3f ms; reads p50 %.3f ms max %.3f ms",
		quantile(w.lateMS, 0.5), quantile(w.lateMS, 1), quantile(rd.lateMS, 0.5), quantile(rd.lateMS, 1))
	if limit := writeRate / 2; outstanding > limit || int(lagRecords) > limit {
		rep.failf("backlog grew past half a second of input (%d outstanding, follower %d records behind): the offered rate is not sustained, so the latency figures describe the run's length, not the system", outstanding, lagRecords)
	}

	// Drain: every batch applied on the leader and on the follower.
	dctx, cancel := context.WithTimeout(ctx, drainTimeout)
	defer cancel()
	if _, err := l.srv.Sync(dctx); err != nil {
		return nil, fmt.Errorf("drain leader: %w", err)
	}
	for l.f.AppliedSeq() < l.d.Seq() && dctx.Err() == nil {
		time.Sleep(time.Millisecond)
	}

	var visible []float64
	var edges int
	var last time.Time
	submitFailed := w.failed
	mu.Lock()
	for i, id := range w.traces {
		if id == 0 {
			continue
		}
		at, ok := done[id]
		if !ok {
			submitFailed++
			continue
		}
		if !w.due[i].Before(measureFrom) {
			visible = append(visible, ms(at.Sub(w.due[i])))
			edges += batchEdges(writes[i])
			if at.After(last) {
				last = at
			}
		}
	}
	mu.Unlock()
	if len(visible) == 0 {
		return nil, fmt.Errorf("no batch completed in the measured phase")
	}
	rep.metrics["visible_ms_p50"] = quantile(visible, 0.5)
	rep.metrics["visible_ms_p90"] = quantile(visible, 0.9)
	rep.metrics["ingest_edges_per_s"] = float64(edges) / last.Sub(measureFrom).Seconds()
	rep.metrics["replica.read_ms_p50"] = quantile(rd.measured(measureFrom), 0.5)
	rep.metrics["replica.read_ms_p99"] = quantile(rd.measured(measureFrom), 0.99)

	var lag []float64
	for seq := uint64(1); seq <= uint64(nWrites); seq++ {
		p, ok1 := published.get(seq)
		a, ok2 := applied.get(seq)
		if ok1 && ok2 && !p.Before(measureFrom) {
			lag = append(lag, ms(a.Sub(p)))
		}
	}
	rep.metrics["replica.follower_lag_ms_p50"] = quantile(lag, 0.5)
	rep.metrics["replica.follower_lag_ms_p90"] = quantile(lag, 0.9)
	rep.notef("measured: %d batches, %d reads, %d follower records", len(visible), len(rd.measured(measureFrom)), len(lag))

	followerFailed := nWrites - int(l.f.AppliedSeq())
	if followerFailed < 0 {
		followerFailed = 0
	}
	rep.ops = append(rep.ops,
		opCount{kind: "submits", attempted: nWrites, failed: submitFailed},
		opCount{kind: "reads", attempted: nReads, failed: rd.failed},
		opCount{kind: "follower records", attempted: nWrites, failed: followerFailed},
	)
	if rd.failedTopK > 0 {
		rep.notef("%d /v1/topk reads failed: the top-k of an SSSP snapshot holds +Inf distances, which the API's JSON encoding cannot carry", rd.failedTopK)
	}
	rep.problems = append(rep.problems, rd.problems...)
	rep.problems = append(rep.problems, w.problems...)

	// The base is the benchmark's copy, not the program's: drop it
	// before reading the heap, and draw it again after.
	base = nil
	rep.metrics["heap_live_mb"] = heapLiveMiB()
	base = baseEdges(cfg.seed, spec)

	if cfg.trace {
		d := tr.delta()
		// The open loop cannot wait for the warm-up's last batch, so
		// the work counted from the mark is divided by the batches
		// published since it.
		commonLayers(rep, tr, d, tr.batchesSince())
		rep.metrics["core.tracked_mb"] = float64(l.srv.Snapshot().Stats.TrackedSnapshotBytes) / mib
		var fsync []float64
		for _, e := range tr.events(flight.KindFsync) {
			fsync = append(fsync, float64(e.A)/1e6)
		}
		rep.metrics["wal.fsync_ms_p50"] = median(fsync)
		rep.metrics["wal.bytes_per_record"] = ratio(float64(d.counter("graphbolt_wal_append_bytes_total")), float64(d.counter("graphbolt_wal_appends_total")))
		rep.metrics["durable.checkpoint_ms_p50"] = median(tr.spanMS("checkpoint", false))
		hits, misses := d.counter("graphbolt_qcache_hits_total"), d.counter("graphbolt_qcache_misses_total")
		rep.metrics["qcache.hits"] = float64(hits)
		rep.metrics["qcache.lookups"] = float64(hits + misses)
		rep.metrics["qcache.hit_ratio"] = ratio(float64(hits), float64(hits+misses))
		rep.metrics["qcache.topk_miss_ms_p50"] = topKMissMS(retainedSnapshots(l.srv))
		queries := tr.spanMS("query", false)
		rep.metrics["replica.api_ms_p50"] = quantile(queries, 0.5)
		rep.metrics["replica.api_ms_p99"] = quantile(queries, 0.99)
		var ship []float64
		for seq := uint64(1); seq <= uint64(nWrites); seq++ {
			s, ok1 := shipped.get(seq)
			a, ok2 := arrived.get(seq)
			if ok1 && ok2 && !s.Before(measureFrom) {
				ship = append(ship, ms(a.Sub(s)))
				tr.add("ship", shipTraceTag|seq, s, a)
			}
		}
		rep.metrics["replica.ship_ms_p50"] = median(ship)
		mu.Lock()
		rep.metrics["replica.follower_apply_ms_p50"] = median(applyMS)
		mu.Unlock()
		rep.metrics["replica.resumes"] = float64(l.f.Resumes())
	}

	// Output checks: leader distances against hop-bounded Bellman-Ford
	// over the mirror, the edge count, and the follower bit for bit.
	mr, err := mirrorAfter(cfg.seed, spec, base, nWrites)
	if err != nil {
		return nil, err
	}
	ls, fs := l.srv.Snapshot(), l.f.Snapshot()
	if got := ls.Graph.NumEdges(); got != int64(mr.m) {
		rep.failf("leader edge count %d, mirror has %d", got, mr.m)
	}
	if err := compareExact(ls.Values, referenceSSSP(mr, ssspSource, 10)); err != nil {
		rep.failf("leader SSSP distances: %v", err)
	}
	if l.f.AppliedSeq() != l.d.Seq() {
		rep.failf("follower applied seq %d, leader journaled %d", l.f.AppliedSeq(), l.d.Seq())
	}
	if fs.Generation != ls.Generation {
		rep.failf("follower generation %d, leader %d", fs.Generation, ls.Generation)
	}
	if fs.Graph.NumEdges() != ls.Graph.NumEdges() {
		rep.failf("follower has %d edges, leader %d", fs.Graph.NumEdges(), ls.Graph.NumEdges())
	}
	if err := compareExact(fs.Values, ls.Values); err != nil {
		rep.failf("follower values differ from the leader's: %v", err)
	}

	stop()
	if _, err := setup.run(setupAfter, false); err != nil {
		return nil, err
	}
	rep.metrics["setup_s"] = setup.median()
	if cfg.trace {
		p50, alloc, err := replayApply(cfg.seed, spec, base, nWrites)
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

// startLeader builds the leader and its follower and returns once the
// follower has connected, holding the leader's first generation.
func startLeader(n int, base []graph.Edge, tr *tracing, onApply func(graphbolt.Applied), onRecord, onFollowerApply func(wal.Record), arrived func(uint64, time.Time, time.Duration)) (*leader, error) {
	dir, err := os.MkdirTemp(".bench_build/perfbench", "wal-")
	if err != nil {
		return nil, err
	}
	l := &leader{dir: dir}

	t0 := time.Now()
	g, err := graphbolt.BuildGraph(n, base)
	tr.addSetup("graph.build", t0)
	if err != nil {
		return l, err
	}
	eng, err := graphbolt.NewEngine(g, graphbolt.NewSSSP(ssspSource), graphbolt.Options{MaxIterations: 10, Retain: ssspRetain, Tracer: tr.Tracer()})
	if err != nil {
		return l, err
	}
	l.rlog = graphbolt.NewReplicationLog(graphbolt.ReplicationLogOptions{
		Logger:        discardLogger(),
		CheckpointSeq: graphbolt.CheckpointDir(dir).CheckpointSeq,
	})
	l.d, err = graphbolt.OpenDurable(eng, dir, graphbolt.DurableOptions{
		CheckpointEvery: checkpointEvery,
		WAL:             graphbolt.WALOptions{Sync: graphbolt.SyncEveryBatch},
		Metrics:         tr.Registry(),
		Tracer:          tr.Tracer(),
		Flight:          tr.Recorder(),
		OnRecord: func(rec wal.Record) {
			onRecord(rec)
			l.rlog.Append(rec)
		},
	})
	if err != nil {
		return l, err
	}
	l.rlog.SetFloor(l.d.Recovery().SnapshotSeq)
	l.srv = graphbolt.NewDurableServer(l.d, graphbolt.ServerOptions{
		// The follower's sequence numbers are the leader's journal
		// sequence, one record per submitted batch.
		DisableCoalescing: true,
		QueryCacheBytes:   16 << 20,
		Flight:            tr.Recorder(),
		OnApply:           onApply,
		Logger:            discardLogger(),
	})

	mux := http.NewServeMux()
	mux.Handle("/v1/", tr.middleware(graphbolt.QueryHandler(l.srv)))
	mux.Handle("GET /v1/wal", l.rlog.Handler())
	mux.Handle("GET /v1/checkpoint", graphbolt.CheckpointHandler(graphbolt.CheckpointDir(dir)))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return l, err
	}
	l.hs = &http.Server{Handler: mux}
	go l.hs.Serve(ln)
	l.url = "http://" + ln.Addr().String()

	t0 = time.Now()
	fg, err := graphbolt.BuildGraph(n, base)
	tr.addSetup("graph.build", t0)
	if err != nil {
		return l, err
	}
	// The follower's engine reports into a registry of its own, so the
	// leader's engine counters stay the leader's.
	var fopts graphbolt.Options
	fopts.MaxIterations = 10
	if tr != nil {
		fopts.Metrics = graphbolt.NewMetricsRegistry()
	}
	feng, err := graphbolt.NewEngine(fg, graphbolt.NewSSSP(ssspSource), fopts)
	if err != nil {
		return l, err
	}
	feng.Run()
	var ap graphbolt.RecordApplier = graphbolt.NewEngineApplier(feng)
	if tr != nil {
		ap = &timedApplier{inner: ap, arrived: arrived}
	}
	l.fhs = health.NewTracker(nil)
	l.fhs.Set(health.Degraded, errors.New("follower not connected yet"))
	l.f, err = graphbolt.NewFollower(feng, ap, l.url, graphbolt.FollowerOptions{
		Logger:  discardLogger(),
		OnApply: onFollowerApply,
		Health:  l.fhs,
	})
	if err != nil {
		return l, err
	}
	l.f.Start(context.Background())
	deadline := time.Now().Add(10 * time.Second)
	for l.fhs.State() != health.Healthy {
		if time.Now().After(deadline) {
			return l, fmt.Errorf("follower did not connect: %v", l.f.Err())
		}
		time.Sleep(100 * time.Microsecond)
	}
	if fg, lg := l.f.Snapshot().Generation, l.srv.Snapshot().Generation; fg != lg {
		return l, fmt.Errorf("follower at generation %d after connecting, leader at %d", fg, lg)
	}
	return l, nil
}

// writerResult is what the open-loop writer did.
type writerResult struct {
	traces   []uint64    // ticket trace per batch, 0 when Submit failed
	due      []time.Time // when each batch was due
	lateMS   []float64   // how late each submit started
	failed   int
	problems []string
}

// runWriter submits batch i at start + i*period, however late the
// previous submits ran.
func runWriter(ctx context.Context, l *leader, bs []graph.Batch, start time.Time, period time.Duration, tick func(i int)) writerResult {
	w := writerResult{traces: make([]uint64, len(bs)), due: make([]time.Time, len(bs))}
	for i, b := range bs {
		due := start.Add(time.Duration(i) * period)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		tick(i)
		w.due[i] = due
		w.lateMS = append(w.lateMS, ms(time.Since(due)))
		tk, err := l.srv.Submit(ctx, b)
		if err != nil {
			w.failed++
			w.problems = append(w.problems, fmt.Sprintf("submit %d: %v", i, err))
			continue
		}
		w.traces[i] = tk.Trace()
	}
	return w
}

// readerResult is what the open-loop reader did.
type readerResult struct {
	due        []time.Time
	latMS      []float64 // successful reads, from their due time
	lateMS     []float64
	failed     int
	failedTopK int
	problems   []string
}

// measured returns the latencies of the reads due in the measured phase.
func (r readerResult) measured(from time.Time) []float64 {
	var out []float64
	for i, d := range r.due {
		if !d.Before(from) {
			out = append(out, r.latMS[i])
		}
	}
	return out
}

// runReader sends read j at start + j*period over one keep-alive
// connection: in each round of readRound reads, one /v1/topk with k from
// topKs, then /v1/value reads of hub vertices. Every answer is checked
// against the leader's snapshot of the generation it names.
func runReader(ctx context.Context, l *leader, seed uint64, n int, start time.Time, period time.Duration, hubs []graph.VertexID) readerResult {
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	rng := gen.NewRNG(derive(seed, 4))
	var r readerResult
	for j := 0; j < n; j++ {
		due := start.Add(time.Duration(j) * period)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		r.lateMS = append(r.lateMS, ms(time.Since(due)))
		var (
			path string
			topK = j%readRound == 0
			k    int
			v    graph.VertexID
		)
		if topK {
			k = topKs[(j/readRound)%len(topKs)]
			path = "/v1/topk?k=" + strconv.Itoa(k)
		} else {
			v = hubs[rng.Intn(len(hubs))]
			path = "/v1/value/" + strconv.Itoa(int(v))
		}
		body, err := get(ctx, client, l.url+path)
		lat := ms(time.Since(due))
		var checkErr error
		if err == nil {
			if topK {
				checkErr = checkTopK(l, body, k)
			} else {
				checkErr = checkValue(l, body, v)
			}
		}
		switch {
		case err != nil:
			r.failed++
			r.problems = append(r.problems, fmt.Sprintf("read %s: %v", path, err))
		case errors.Is(checkErr, errUnencodable):
			// The known fault: counted as failed, not as wrong.
			r.failed++
			r.failedTopK++
		case checkErr != nil:
			r.failed++
			r.problems = append(r.problems, fmt.Sprintf("read %s: %v", path, checkErr))
		default:
			r.due = append(r.due, due)
			r.latMS = append(r.latMS, lat)
		}
	}
	return r
}

func get(ctx context.Context, c *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	return body, nil
}

// errUnencodable marks a /v1/topk answer that came back empty because
// the top-k held +Inf, which encoding/json refuses.
var errUnencodable = errors.New("top-k holds +Inf, which the API cannot encode")

// checkTopK compares a /v1/topk answer with the top-k the benchmark
// computes from the leader's snapshot of the generation it names. An
// empty answer is the known fault only if the current top-k holds +Inf.
func checkTopK(l *leader, body []byte, k int) error {
	if len(body) == 0 {
		s := l.srv.Snapshot()
		for _, x := range s.Values {
			if math.IsInf(x, 1) {
				return errUnencodable
			}
		}
		return fmt.Errorf("empty answer, but generation %d holds no +Inf", s.Generation)
	}
	var resp replica.TopKResponse[float64]
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	s, err := l.srv.SnapshotAt(resp.Generation)
	if err != nil {
		return nil // evicted before the check; nothing to compare with
	}
	want := topK(s.Values, k)
	if len(resp.Top) != len(want) {
		return fmt.Errorf("generation %d: %d entries, want %d", resp.Generation, len(resp.Top), len(want))
	}
	for i, e := range resp.Top {
		if e.Vertex != want[i].Vertex || e.Value != want[i].Value {
			return fmt.Errorf("generation %d entry %d: %d=%v, want %d=%v", resp.Generation, i, e.Vertex, e.Value, want[i].Vertex, want[i].Value)
		}
	}
	return nil
}

// checkValue compares a /v1/value answer with the leader's snapshot of
// the generation it names.
func checkValue(l *leader, body []byte, v graph.VertexID) error {
	var resp replica.ValueResponse[float64]
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("%w (body %q)", err, body)
	}
	if resp.Vertex != v {
		return fmt.Errorf("answer for vertex %d, asked %d", resp.Vertex, v)
	}
	s, err := l.srv.SnapshotAt(resp.Generation)
	if err != nil {
		return nil // evicted before the check
	}
	if want := s.Values[v]; resp.Value != want {
		return fmt.Errorf("generation %d vertex %d: %v, want %v", resp.Generation, v, resp.Value, want)
	}
	return nil
}

// topK is the benchmark's own top-k: highest value first, ties by
// ascending vertex id.
func topK(values []float64, k int) []replica.TopEntry[float64] {
	idx := make([]int, len(values))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool {
		a, b := idx[i], idx[j]
		if values[a] != values[b] {
			return values[a] > values[b]
		}
		return a < b
	})
	if k > len(idx) {
		k = len(idx)
	}
	out := make([]replica.TopEntry[float64], k)
	for i := 0; i < k; i++ {
		out[i] = replica.TopEntry[float64]{Vertex: graph.VertexID(idx[i]), Value: values[idx[i]]}
	}
	return out
}
