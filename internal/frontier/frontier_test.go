package frontier

import (
	"testing"

	"repro/internal/bitset"
	"repro/internal/parallel"
)

func TestEmpty(t *testing.T) {
	f := New(100)
	if !f.IsEmpty() || f.Len() != 0 || f.Has(3) {
		t.Fatal("fresh frontier not empty")
	}
}

func TestAddSparseThenDense(t *testing.T) {
	f := New(100)
	if !f.Add(7) || f.Add(7) {
		t.Fatal("Add dedup wrong")
	}
	if f.Dense() {
		t.Fatal("dense too early")
	}
	for v := uint32(0); v < 50; v++ {
		f.Add(v)
	}
	if !f.Dense() {
		t.Fatal("should have flipped dense at 50% occupancy")
	}
	if f.Len() != 50 {
		t.Fatalf("Len = %d, want 50", f.Len())
	}
}

func TestAll(t *testing.T) {
	f := All(64)
	if f.Len() != 64 || !f.Has(0) || !f.Has(63) {
		t.Fatal("All incomplete")
	}
}

func TestFromVertices(t *testing.T) {
	f := FromVertices(10, []uint32{3, 1, 3, 9})
	if f.Len() != 3 {
		t.Fatalf("Len = %d, want 3", f.Len())
	}
	vs := f.Vertices()
	want := []uint32{1, 3, 9}
	for i := range want {
		if vs[i] != want[i] {
			t.Fatalf("Vertices = %v", vs)
		}
	}
}

func TestFromBits(t *testing.T) {
	b := bitset.New(130)
	b.Words()[0] = 1<<3 | 1<<63
	b.Words()[2] = 1 << 1
	f := FromBits(b)
	vs := f.Vertices()
	if !f.Dense() || f.Len() != 3 || len(vs) != 3 || vs[0] != 3 || vs[1] != 63 || vs[2] != 129 {
		t.Fatalf("FromBits: dense=%v len=%d vertices=%v", f.Dense(), f.Len(), vs)
	}
}

func TestVerticesSortedSparse(t *testing.T) {
	f := New(1000)
	for _, v := range []uint32{900, 5, 300} {
		f.Add(v)
	}
	vs := f.Vertices()
	if len(vs) != 3 || vs[0] != 5 || vs[1] != 300 || vs[2] != 900 {
		t.Fatalf("Vertices = %v", vs)
	}
}

func TestAddAtomicConcurrent(t *testing.T) {
	f := New(512)
	news := parallel.NewCounter()
	parallel.ForWorker(50_000, 64, func(worker, start, end int) {
		for i := start; i < end; i++ {
			if f.AddAtomic(uint32(i % 512)) {
				news.Add(worker, 1)
			}
		}
	})
	if news.Sum() != 512 || f.Len() != 512 {
		t.Fatalf("news=%d len=%d, want 512/512", news.Sum(), f.Len())
	}
}

func TestReset(t *testing.T) {
	f := New(64)
	f.Add(1)
	f.AddAtomic(2)
	f.Reset()
	if !f.IsEmpty() || f.Has(1) || f.Has(2) || f.Dense() {
		t.Fatal("Reset incomplete")
	}
	f.Add(3)
	if f.Len() != 1 {
		t.Fatal("frontier unusable after Reset")
	}
}
