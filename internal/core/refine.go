package core

import (
	"fmt"
	"math/bits"
	"time"

	"repro/internal/bitset"
	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// ApplyBatch applies a structural mutation batch and brings the computed
// values up to date for the new snapshot according to the engine mode:
// dependency-driven refinement (GraphBolt), restart (Ligra/GB-Reset), or
// direct value reuse (Naive). It returns the work performed by this call.
//
// The batch is validated first (graph.Batch.Validate): malformed input —
// NaN/Inf weights, vertex ids beyond graph.MaxVertexID — is rejected
// with an error before any state changes. A panic escaping the program's
// vertex functions is recovered and returned as an error (wrapping
// *parallel.PanicError with the offending vertex range); the engine's
// in-memory state is undefined afterwards and the engine must be
// discarded — a durable wrapper can reopen from its last checkpoint.
func (e *Engine[V, A]) ApplyBatch(b graph.Batch) (Stats, error) {
	if err := b.Validate(); err != nil {
		return Stats{}, fmt.Errorf("core: apply batch: %w", err)
	}
	var st Stats
	err := parallel.Catch(func() {
		sp := e.opts.Tracer.StartPhase("apply_batch")
		start := time.Now()
		oldG := e.g
		newG, res := oldG.Apply(b)

		switch {
		case !e.ran:
			// No prior run: install the new snapshot and compute fresh.
			e.g = newG
			st = e.Run()
			// Run already recorded its own duration/stats/metrics.
			sp.End()
			return
		case e.opts.Mode == ModeLigra || e.opts.Mode == ModeReset:
			e.g = newG
			e.resetState()
			if e.opts.Mode == ModeLigra {
				st = e.runLigra()
			} else {
				st = e.runDelta(1, nil, e.opts.MaxIterations)
			}
		case e.opts.Mode == ModeNaive:
			st = e.naiveContinue(oldG, newG, res)
		default: // ModeGraphBolt, ModeGraphBoltRP
			st = e.refine(oldG, newG, res)
		}
		st.Duration = time.Since(start)
		st.TrackedSnapshotBytes = e.HistoryBytes()
		e.stats.Add(st)
		e.met.observeBatch(st)
		e.refreshTrackingMetrics()
		e.publish()
		sp.End()
	})
	if err != nil {
		return Stats{}, fmt.Errorf("core: apply batch: %w", err)
	}
	return st, nil
}

// tailFix records a vertex whose history was extended by refinement: if a
// later level leaves it untouched, the stored tail must be restored so
// that past-last lookups keep returning the true stabilized aggregate.
type tailFix[A any] struct {
	v    VertexID
	tail A
}

// srcVals holds a changed source's old and new value and out-degree at
// the level being refined, computed once per level rather than per edge
// (by the compute phase of the level before, for value changes).
type srcVals[V any] struct {
	ov, nv V
	od, nd int
}

// refine performs dependency-driven value refinement (§3.3): iterate the
// tracked levels 1..H, at each level applying the direct impact of added
// edges (⊎ with old source values), deleted edges (⋃- with old values and
// weights), and the transitive impact of changed sources (⋃△), then
// recomputing the affected vertex values. Past the horizon it switches to
// hybrid execution (§4.2): plain delta-based BSP seeded with the changed
// sets at the horizon.
func (e *Engine[V, A]) refine(oldG, newG *graph.Graph, res graph.ApplyResult) Stats {
	spRefine := e.opts.Tracer.StartPhase("refine")
	var st Stats
	e.g = newG
	n := newG.NumVertices()
	oldN := oldG.NumVertices()
	e.grow(n)

	L := e.level
	H := e.opts.Horizon
	if H > L {
		H = L
	}

	var edgeWork int64
	vertWork := parallel.NewCounter()

	// Vertices whose out-degree changed: for degree-normalized programs
	// their contribution over every out-edge changes at every level.
	var degChanged *bitset.Bitset
	if e.deg {
		degChanged = degreeChanged(oldG, newG, res)
	}

	// Rolling stash of OLD values at the previous level for vertices
	// whose history entry there was overwritten — exactly the vertices
	// that level touched, so stashValid is its touched set. New values
	// never need stashing: post-refinement history IS the new run.
	// Every buffer is per call, so an idle engine holds none of it.
	oldStash := make([]V, n)
	stashValid := bitset.New(n)
	nextOldStash := make([]V, n)

	// pending maps extended vertices to their original stabilized tail
	// aggregate; it is read-only during parallel phases and mutated only
	// between levels.
	pending := make(map[VertexID]A)

	aggWork := make([]A, n)
	var sv []srcVals[V] // ⋃△ source values; the pull path needs none
	if !e.pull {
		sv = make([]srcVals[V], n)
	}

	changed := bitset.New(n)    // old-vs-new value changed at level i-1
	touchedAny := bitset.New(n) // union across levels, for the hand-off

	for i := 1; i <= H; i++ {
		j := i - 1
		oldValAt := func(u VertexID) V {
			if stashValid.Get(u) {
				return oldStash[u]
			}
			return e.valueAt(u, j)
		}

		// oldAggAt returns the pre-refinement aggregate at level i.
		oldAggAt := func(t VertexID) A {
			if tail, ok := pending[t]; ok {
				return tail
			}
			a, ok := e.hist.Lookup(t, i)
			if !ok {
				a = e.p.IdentityAgg()
			}
			return a
		}

		// Sources of the transitive impact (⋃△): vertices whose value
		// (or out-degree) changed update their contribution over every
		// out-edge of the new graph.
		src := changed
		if degChanged != nil {
			src = changed.Clone()
			src.Or(degChanged)
		}
		sources := src.Members(nil)
		touched := bitset.New(n) // targets updated at this level

		var fold func(t VertexID, fresh bool) int64
		if e.pull {
			// Non-decomposable: affected vertices re-aggregate their
			// entire in-neighborhood of the new graph using new source
			// values (§3.3's re-evaluation strategy).
			for _, list := range [][]graph.Edge{res.Added, res.Deleted} {
				for _, ed := range list {
					touched.Set(ed.To)
				}
			}
			fold = func(t VertexID, fresh bool) int64 {
				us, ws := newG.InNeighbors(t)
				if fresh && !hasInNeighbor(us, src) {
					return 0
				}
				na := e.p.IdentityAgg()
				for x, u := range us {
					e.p.Propagate(&na, e.valueAt(u, j), u, t, ws[x], newG.OutDegree(u))
				}
				aggWork[t] = na
				return int64(len(us))
			}
		} else {
			// The work aggregate for a touched target starts from the old
			// aggregate at this level.
			ensure := func(t VertexID) {
				if touched.Set(t) {
					aggWork[t] = e.p.CloneAgg(oldAggAt(t))
				}
			}
			// (a) Direct impact, in batch order: added edges re-propagate
			// old source values (⊎); deleted edges retract them (⋃-),
			// both with old degrees and the deleted edges' original
			// weights.
			for _, ed := range res.Added {
				ensure(ed.To)
				e.p.Propagate(&aggWork[ed.To], oldValAt(ed.From), ed.From, ed.To, ed.Weight, outDegree(oldG, ed.From))
			}
			for _, ed := range res.Deleted {
				ensure(ed.To)
				e.p.Retract(&aggWork[ed.To], oldValAt(ed.From), ed.From, ed.To, ed.Weight, outDegree(oldG, ed.From))
			}
			edgeWork += int64(len(res.Added) + len(res.Deleted))

			// (b) Transitive impact, gathered per target. The compute
			// phase recorded every changed source's srcVals; fill in the
			// degree-changed rest.
			if degChanged != nil {
				degChanged.Range(func(u VertexID) {
					if !changed.Get(u) {
						sv[u] = srcVals[V]{oldValAt(u), e.valueAt(u, j), outDegree(oldG, u), newG.OutDegree(u)}
					}
				})
			}
			fold = func(t VertexID, fresh bool) (cnt int64) {
				us, ws := newG.InNeighbors(t)
				for x, u := range us {
					if !src.Get(u) {
						continue
					}
					if fresh {
						aggWork[t] = e.p.CloneAgg(oldAggAt(t))
						fresh = false
					}
					s := &sv[u]
					if e.delta != nil {
						e.delta.PropagateDelta(&aggWork[t], s.ov, s.nv, u, t, ws[x], s.od, s.nd)
						cnt++
					} else {
						e.p.Retract(&aggWork[t], s.ov, u, t, ws[x], s.od)
						e.p.Propagate(&aggWork[t], s.nv, u, t, ws[x], s.nd)
						cnt += 2
					}
				}
				return cnt
			}
		}
		edgeWork += gather(gatherTargets(newG, sources), touched, fold)

		// Compute phase: derive old and new values at this level, store
		// the refined aggregate, and build the next changed set. Each
		// owner writes its words of the changed set.
		changed = bitset.New(n)
		extensions := make([][]tailFix[A], parallel.Workers())
		tw, cw := touched.Words(), changed.Words()
		ownedWords(n, func(worker, wi int) {
			var word uint64
			var cnt int64
			for m := tw[wi]; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m)
				v := VertexID(wi*64 + b)
				oldAgg := oldAggAt(v)
				// Refining at or past the final stored entry destroys the
				// stabilized tail that lookups beyond it rely on: remember
				// it so oldAggAt keeps answering correctly and so it can
				// be restored once the vertex goes untouched again.
				touchesTail := e.hist.Last(v) <= i
				_, hadPending := pending[v]
				oldVal := e.p.Compute(v, oldAgg)
				newVal := e.p.Compute(v, aggWork[v])
				e.hist.Append(v, i, aggWork[v])
				nextOldStash[v] = oldVal
				if touchesTail && !hadPending {
					extensions[worker] = append(extensions[worker], tailFix[A]{v, e.p.CloneAgg(oldAgg)})
				}
				if e.p.Changed(oldVal, newVal) {
					word |= 1 << b
					if sv != nil {
						sv[v] = srcVals[V]{oldVal, newVal, outDegree(oldG, v), newG.OutDegree(v)}
					}
				}
				cnt++
			}
			cw[wi] = word
			vertWork.Add(worker, cnt)
		})

		// Tail restores: extended vertices left untouched at this level
		// revert to their stabilized aggregate from here on; write that
		// tail at this level and retire them.
		for v, tail := range pending {
			if !touched.Get(v) {
				e.hist.Append(v, i, tail)
				delete(pending, v)
			}
		}
		for _, list := range extensions {
			for _, fix := range list {
				pending[fix.v] = fix.tail
			}
		}

		touchedAny.Or(touched)
		oldStash, nextOldStash = nextOldStash, oldStash
		stashValid = touched
		st.RefineIterations++
	}

	// Hybrid execution (§4.2): materialize the refined state at level H
	// and continue plain delta-based BSP from H+1. The post-refinement
	// history *is* the new run for levels ≤ H, so the exact seed — every
	// vertex whose value changed between levels H-1 and H — falls out of
	// value reconstructions. (This subsumes the original run's
	// changed-at-horizon bit-vector and the refinement's changed sets.)
	//
	// When the horizon reaches the previous run's depth (H == L, the
	// common no-horizontal-pruning case), untouched vertices already hold
	// c_L == c^T_H in vals and д_L == д^T_H in agg, so only refined and
	// newly added vertices need refreshing — this keeps per-batch work
	// proportional to the refinement's reach instead of |V|.
	canContinue := H < e.opts.MaxIterations
	seed := frontier.New(n)
	refresh := func(v int) {
		vid := VertexID(v)
		e.vals[v] = e.valueAt(vid, H)
		a, ok := e.hist.Lookup(vid, H)
		if !ok {
			a = e.p.IdentityAgg()
		}
		e.agg[v] = e.p.CloneAgg(a)
		if canContinue {
			prev := e.valueAt(vid, H-1)
			if e.p.Changed(prev, e.vals[v]) {
				e.old[v] = prev
				seed.AddAtomic(vid)
			}
		}
	}
	if H == L {
		members := touchedAny.Members(nil)
		parallel.For(len(members), func(k int) { refresh(int(members[k])) })
		for v := oldN; v < n; v++ { // vertices added by this batch
			if !touchedAny.Get(VertexID(v)) {
				refresh(v)
			}
		}
		if canContinue {
			// Untouched vertices changed between H-1 and H in the new run
			// iff they did in the old run; the history frontier tells us
			// without recomputing values.
			parallel.For(oldN, func(v int) {
				vid := VertexID(v)
				if !touchedAny.Get(vid) && e.hist.Last(vid) == H {
					prev := e.valueAt(vid, H-1)
					if e.p.Changed(prev, e.vals[v]) {
						e.old[v] = prev
						seed.AddAtomic(vid)
					}
				}
			})
		}
	} else {
		// Horizontal pruning rewound the state to level H < L: every
		// vertex's value/aggregate must be re-materialized.
		parallel.For(n, func(v int) { refresh(v) })
	}
	e.level = H
	spRefine.End()
	spHybrid := e.opts.Tracer.StartPhase("hybrid")
	st2 := e.runDelta(H+1, seed, e.opts.MaxIterations)
	spHybrid.End()

	st.EdgeComputations = edgeWork + st2.EdgeComputations
	st.VertexComputations = vertWork.Sum() + st2.VertexComputations
	st.Iterations = st2.Iterations
	st.HybridIterations = st2.Iterations
	e.met.refineEdges.Add(edgeWork)
	e.met.hybridEdges.Add(st2.EdgeComputations)
	return st
}

// naiveContinue is the incorrect-by-design baseline of §2.2: reuse the
// converged values directly, folding the structural change into the
// running aggregates with *current* values, then keep iterating. It
// converges to S*(G^T, R_G) rather than S*(G^T, I).
func (e *Engine[V, A]) naiveContinue(oldG, newG *graph.Graph, res graph.ApplyResult) Stats {
	e.g = newG
	n := newG.NumVertices()
	e.grow(n)

	var edgeWork int64
	touched := bitset.New(n)

	if e.pull {
		for _, list := range [][]graph.Edge{res.Added, res.Deleted} {
			for _, ed := range list {
				touched.Set(ed.To)
			}
		}
		edgeWork = gather(touched, touched, func(v VertexID, _ bool) int64 {
			na := e.p.IdentityAgg()
			us, ws := newG.InNeighbors(v)
			for i, u := range us {
				e.p.Propagate(&na, e.vals[u], u, v, ws[i], newG.OutDegree(u))
			}
			e.agg[v] = na
			return int64(len(us))
		})
	} else {
		for _, ed := range res.Added {
			e.p.Propagate(&e.agg[ed.To], e.vals[ed.From], ed.From, ed.To, ed.Weight, newG.OutDegree(ed.From))
			touched.Set(ed.To)
		}
		for _, ed := range res.Deleted {
			e.p.Retract(&e.agg[ed.To], e.vals[ed.From], ed.From, ed.To, ed.Weight, outDegree(oldG, ed.From))
			touched.Set(ed.To)
		}
		edgeWork += int64(len(res.Added) + len(res.Deleted))
		if e.deg {
			degreeChanged(oldG, newG, res).Range(func(u VertexID) {
				odeg, ndeg := outDegree(oldG, u), newG.OutDegree(u)
				ts, ws := newG.OutNeighbors(u)
				for x, t := range ts {
					if e.delta != nil {
						e.delta.PropagateDelta(&e.agg[t], e.vals[u], e.vals[u], u, t, ws[x], odeg, ndeg)
					} else {
						e.p.Retract(&e.agg[t], e.vals[u], u, t, ws[x], odeg)
						e.p.Propagate(&e.agg[t], e.vals[u], u, t, ws[x], ndeg)
					}
					touched.Set(t)
				}
				edgeWork += int64(len(ts))
			})
		}
	}

	seed := frontier.New(n)
	members := touched.Members(nil)
	for _, v := range members {
		nv := e.p.Compute(v, e.agg[v])
		if e.p.Changed(e.vals[v], nv) {
			e.old[v] = e.vals[v]
			e.vals[v] = nv
			seed.AddAtomic(v)
		}
	}
	st := e.runDelta(e.level+1, seed, e.level+e.opts.MaxIterations)
	st.EdgeComputations += edgeWork
	st.VertexComputations += int64(len(members))
	return st
}
