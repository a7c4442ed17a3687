package parallel

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 7, 511, 512, 513, 100_000} {
		seen := make([]int32, n)
		For(n, func(i int) { atomic.AddInt32(&seen[i], 1) })
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, c)
			}
		}
	}
}

func TestForGrainSmallGrain(t *testing.T) {
	n := 10_000
	var sum atomic.Int64
	ForGrain(n, 3, func(i int) { sum.Add(int64(i)) })
	want := int64(n) * int64(n-1) / 2
	if got := sum.Load(); got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
}

func TestForGrainZeroGrainDefaults(t *testing.T) {
	n := 2000
	var sum atomic.Int64
	ForGrain(n, 0, func(i int) { sum.Add(1) })
	if got := sum.Load(); got != int64(n) {
		t.Fatalf("visited %d indices, want %d", got, n)
	}
}

func TestForRangeDisjointCover(t *testing.T) {
	n := 54321
	seen := make([]int32, n)
	ForRange(n, 100, func(start, end int) {
		if start < 0 || end > n || start > end {
			t.Errorf("bad range [%d,%d)", start, end)
			return
		}
		for i := start; i < end; i++ {
			atomic.AddInt32(&seen[i], 1)
		}
	})
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

func TestForWorkerIDsInRange(t *testing.T) {
	n := 20_000
	max := Workers()
	var bad atomic.Int64
	ForWorker(n, 64, func(worker, start, end int) {
		if worker < 0 || worker >= max {
			bad.Add(1)
		}
	})
	if bad.Load() != 0 {
		t.Fatalf("worker ids escaped [0,%d)", max)
	}
}

func TestForNegativeN(t *testing.T) {
	called := false
	For(-5, func(i int) { called = true })
	if called {
		t.Fatal("body called for negative n")
	}
}

func TestAddFloat64Concurrent(t *testing.T) {
	var bits uint64
	StoreFloat64(&bits, 0)
	n := 100_000
	For(n, func(i int) { AddFloat64(&bits, 0.5) })
	if got := LoadFloat64(&bits); got != float64(n)/2 {
		t.Fatalf("sum = %v, want %v", got, float64(n)/2)
	}
}

func TestMulFloat64Concurrent(t *testing.T) {
	var bits uint64
	StoreFloat64(&bits, 1)
	// 2^20 via 20 doublings, concurrently interleaved with 20 halvings:
	// the result must be exactly 1 since multiplication here is
	// order-independent for powers of two.
	For(40, func(i int) {
		if i%2 == 0 {
			MulFloat64(&bits, 2)
		} else {
			MulFloat64(&bits, 0.5)
		}
	})
	if got := LoadFloat64(&bits); got != 1 {
		t.Fatalf("product = %v, want 1", got)
	}
}

func TestMinFloat64(t *testing.T) {
	var bits uint64
	StoreFloat64(&bits, math.Inf(1))
	vals := []float64{5, 3, 9, 1, 7, 1, 2}
	For(len(vals), func(i int) { MinFloat64(&bits, vals[i]) })
	if got := LoadFloat64(&bits); got != 1 {
		t.Fatalf("min = %v, want 1", got)
	}
	if MinFloat64(&bits, 4) {
		t.Fatal("MinFloat64 claimed to lower value with larger input")
	}
}

func TestCounter(t *testing.T) {
	c := NewCounter()
	ForWorker(100_000, 128, func(worker, start, end int) {
		c.Add(worker, int64(end-start))
	})
	if got := c.Sum(); got != 100_000 {
		t.Fatalf("counter sum = %d, want 100000", got)
	}
	c.Reset()
	if got := c.Sum(); got != 0 {
		t.Fatalf("counter after reset = %d", got)
	}
}

// Property: parallel float sum equals sequential sum exactly when all
// inputs are integral (no rounding ambiguity regardless of order).
func TestQuickParallelSumOfInts(t *testing.T) {
	f := func(raw []int16) bool {
		var bits uint64
		var want float64
		for _, v := range raw {
			want += float64(v)
		}
		For(len(raw), func(i int) { AddFloat64(&bits, float64(raw[i])) })
		return LoadFloat64(&bits) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// withProcs runs fn under an inflated GOMAXPROCS so the worker-spawning
// paths execute even on single-CPU machines (concurrency without
// parallelism still schedules all goroutines).
func withProcs(t *testing.T, procs int, fn func()) {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	fn()
}

func TestForMultiProcCoversAllIndices(t *testing.T) {
	withProcs(t, 8, func() {
		n := 100_000
		seen := make([]int32, n)
		For(n, func(i int) { atomic.AddInt32(&seen[i], 1) })
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("index %d visited %d times", i, c)
			}
		}
	})
}

func TestForRangeMultiProc(t *testing.T) {
	withProcs(t, 8, func() {
		n := 54_321
		var total atomic.Int64
		ForRange(n, 100, func(start, end int) {
			total.Add(int64(end - start))
		})
		if total.Load() != int64(n) {
			t.Fatalf("covered %d of %d", total.Load(), n)
		}
	})
}

func TestForWorkerMultiProc(t *testing.T) {
	withProcs(t, 8, func() {
		c := NewCounter()
		n := 80_000
		ForWorker(n, 64, func(worker, start, end int) {
			if worker < 0 || worker >= Workers() {
				t.Errorf("worker id %d out of range", worker)
			}
			c.Add(worker, int64(end-start))
		})
		if c.Sum() != int64(n) {
			t.Fatalf("sum = %d, want %d", c.Sum(), n)
		}
	})
}

func TestForGrainMultiProcSmallGrain(t *testing.T) {
	withProcs(t, 8, func() {
		var sum atomic.Int64
		ForGrain(10_000, 7, func(i int) { sum.Add(int64(i)) })
		want := int64(10_000) * 9_999 / 2
		if sum.Load() != want {
			t.Fatalf("sum = %d, want %d", sum.Load(), want)
		}
	})
}

func TestAtomicOpsMultiProc(t *testing.T) {
	withProcs(t, 8, func() {
		var bits uint64
		StoreFloat64(&bits, 0)
		For(200_000, func(i int) { AddFloat64(&bits, 0.25) })
		if got := LoadFloat64(&bits); got != 50_000 {
			t.Fatalf("sum = %v", got)
		}
	})
}
