package bufpool

import (
	"sync"
	"testing"
)

func TestClassRounding(t *testing.T) {
	cases := []struct{ n, wantCap int }{
		{1, 64}, {64, 64}, {65, 128}, {1500, 2048}, {2048, 2048},
		{2049, 4096}, {65536, 65536}, {1 << 17, 1 << 17},
	}
	for _, c := range cases {
		b := New().GetRaw(c.n)
		if len(b) != c.n || cap(b) != c.wantCap {
			t.Errorf("GetRaw(%d): len=%d cap=%d, want len=%d cap=%d",
				c.n, len(b), cap(b), c.n, c.wantCap)
		}
	}
}

func TestOversizeFallsThrough(t *testing.T) {
	p := New()
	b := p.GetRaw(MaxPooled + 1)
	if len(b) != MaxPooled+1 {
		t.Fatalf("oversize len = %d", len(b))
	}
	if p.Stats.Misses != 1 {
		t.Errorf("Misses = %d, want 1", p.Stats.Misses)
	}
	if p.PutRaw(b) {
		t.Error("oversize slab adopted; should fall to the GC")
	}
	if p.Stats.Dropped != 1 {
		t.Errorf("Dropped = %d, want 1", p.Stats.Dropped)
	}
}

func TestPutAdoptsOnlyExactClassCapacity(t *testing.T) {
	p := New()
	if p.PutRaw(make([]byte, 100)) { // cap 100: not a class size
		t.Error("adopted a slab with off-class capacity")
	}
	if !p.PutRaw(make([]byte, 10, 2048)) { // cap 2048: exact class
		t.Error("declined a slab with exact class capacity")
	}
	if p.FreeSlabs() != 1 {
		t.Errorf("FreeSlabs = %d, want 1", p.FreeSlabs())
	}
	// Foreign slabs (allocated by another pool) circulate by the same rule.
	q := New()
	if !p.PutRaw(q.GetRaw(1500)) {
		t.Error("declined a foreign pool's slab")
	}
	if p.Stats.Adopted != 2 {
		t.Errorf("Adopted = %d, want 2", p.Stats.Adopted)
	}
}

// Place lays data behind a header in a slab: in place when data already
// sits there, by copy when it lives elsewhere, and into a larger pooled
// slab (the header carried over, the old slab recycled) when it does not
// fit.
func TestPlace(t *testing.T) {
	p := New()
	slab := p.GetRaw(1 + 100)
	slab[0] = 0xAA
	for i := range slab[1:] {
		slab[1+i] = byte(i)
	}
	got := p.Place(slab, 1, slab[1:])
	if len(got) != 101 || &got[0] != &slab[0] || got[100] != 99 {
		t.Fatal("data already in place was moved or cut")
	}

	other := []byte{7, 8, 9}
	got = p.Place(slab, 1, other)
	if len(got) != 4 || &got[0] != &slab[0] || got[0] != 0xAA || got[1] != 7 || got[3] != 9 {
		t.Fatalf("copy into the slab: %v", got[:4])
	}

	big := make([]byte, 300)
	big[299] = 5
	got = p.Place(slab, 1, big)
	if len(got) != 301 || cap(got) != 512 || got[0] != 0xAA || got[300] != 5 {
		t.Fatalf("grown slab: len %d cap %d", len(got), cap(got))
	}
	if p.FreeSlabs() != 1 {
		t.Errorf("FreeSlabs = %d, want the outgrown slab back", p.FreeSlabs())
	}
}

func TestCheckFreeCatchesDoublePut(t *testing.T) {
	p := New()
	a, b := p.GetRaw(100), p.GetRaw(100)
	p.PutRaw(a)
	p.PutRaw(b)
	p.PutRaw(p.GetRaw(4000))
	if err := p.CheckFree(); err != nil {
		t.Fatalf("distinct slabs flagged: %v", err)
	}
	p.PutRaw(a[:10]) // a second owner returns the same backing array
	if err := p.CheckFree(); err == nil {
		t.Fatal("slab held twice on the free list not reported")
	}
}

func TestClassCapBoundsRetention(t *testing.T) {
	p := New()
	for i := 0; i < defaultClassCap+10; i++ {
		p.PutRaw(make([]byte, 64))
	}
	if got := p.FreeSlabs(); got != defaultClassCap {
		t.Errorf("FreeSlabs = %d, want cap %d", got, defaultClassCap)
	}
	if p.Stats.Dropped != 10 {
		t.Errorf("Dropped = %d, want 10", p.Stats.Dropped)
	}
}

func TestReleasedSlabIsReused(t *testing.T) {
	p := New()
	b := p.GetRaw(1000)
	b[0] = 0xAA
	if !p.PutRaw(b) {
		t.Fatal("slab not adopted")
	}
	b2 := p.GetRaw(900) // same class (2048)
	if &b[0] != &b2[0] {
		t.Error("pool did not reuse the released slab")
	}
	if p.Stats.Misses != 1 {
		t.Errorf("Misses = %d, want 1 (second Get must hit)", p.Stats.Misses)
	}
}

func TestFrameRefcounting(t *testing.T) {
	p := New()
	f := p.Get(512)
	if f.Refs() != 1 || len(f.B) != 512 {
		t.Fatalf("fresh frame: refs=%d len=%d", f.Refs(), len(f.B))
	}
	f.Retain()
	f.Release()
	if f.Refs() != 1 {
		t.Fatalf("refs = %d after retain+release, want 1", f.Refs())
	}
	if p.FreeSlabs() != 0 {
		t.Error("slab recycled while a reference was live")
	}
	f.Release()
	if f.Refs() != 0 || f.B != nil {
		t.Errorf("final release: refs=%d B=%v", f.Refs(), f.B)
	}
	if p.FreeSlabs() != 1 {
		t.Error("final release did not recycle the slab")
	}
	// The Frame struct itself recycles too.
	f2 := p.Get(100)
	if f2 != f {
		t.Error("frame struct not recycled through the free list")
	}
	f2.Release()
}

func TestReleasePanicsAfterFinal(t *testing.T) {
	p := New()
	f := p.Get(64)
	f.Release()
	defer func() {
		if recover() == nil {
			t.Error("double Release did not panic")
		}
	}()
	f.Release()
}

func TestNilFrameIsSafe(t *testing.T) {
	var f *Frame
	f.Release()
	f.Retain()
	if f.Bytes() != nil || f.Refs() != 0 {
		t.Error("nil frame accessors not inert")
	}
}

func TestWrapRecyclesWholeSlab(t *testing.T) {
	p := New()
	slab := p.GetRaw(2000) // class 2048
	view := slab[14:900]   // payload behind a header
	f := p.Wrap(slab, view)
	if &f.B[0] != &view[0] || len(f.B) != len(view) {
		t.Fatal("wrapped view does not alias the slab")
	}
	f.Release()
	// The FULL slab came back, not the truncated view.
	b := p.GetRaw(2048)
	if &b[0] != &slab[0] {
		t.Error("wrapped slab not recycled from its start")
	}
	if cap(b) != 2048 {
		t.Errorf("recycled cap = %d", cap(b))
	}
}

// TestAliasingAfterRelease documents the use-after-free contract: once a slab
// is released, the very next same-class GetRaw may hand the same memory to a
// new owner, so writes through a stale reference corrupt the new buffer. The
// datapath's ownership rules (Deliver consumes, Send/RespondBlk borrow and
// copy synchronously) exist precisely to make this scenario impossible.
func TestAliasingAfterRelease(t *testing.T) {
	p := New()
	stale := p.GetRaw(1024)
	p.PutRaw(stale)
	fresh := p.GetRaw(1024)
	fresh[0] = 1
	stale[0] = 99 // the bug this package's conventions prevent
	if fresh[0] != 99 {
		t.Fatal("expected stale alias to clobber the fresh buffer (LIFO reuse)")
	}
}

// TestPoolStressParallel churns private pools from many goroutines under the
// race detector. Pools are single-threaded by contract — the point here is
// that per-cell pools (as the parallel experiment runner creates) share no
// hidden state, so fully independent churn is race-free.
func TestPoolStressParallel(t *testing.T) {
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			p := New()
			next := func() uint64 { seed = seed*6364136223846793005 + 1; return seed >> 33 }
			var loans [][]byte
			var leases []*Frame
			for i := 0; i < 20000; i++ {
				switch next() % 5 {
				case 0:
					loans = append(loans, p.GetRaw(int(next()%8192)+1))
				case 1:
					if n := len(loans); n > 0 {
						p.PutRaw(loans[n-1])
						loans = loans[:n-1]
					}
				case 2:
					f := p.Get(int(next()%4096) + 1)
					if next()%2 == 0 {
						f.Retain()
						f.Release()
					}
					leases = append(leases, f)
				case 3:
					if n := len(leases); n > 0 {
						leases[n-1].Release()
						leases = leases[:n-1]
					}
				case 4:
					slab := p.GetRaw(2048)
					leases = append(leases, p.Wrap(slab, slab[64:128]))
				}
			}
			for _, b := range loans {
				p.PutRaw(b)
			}
			for _, f := range leases {
				f.Release()
			}
			if p.Stats.Gets < 1000 {
				t.Errorf("stress barely exercised the pool: %d gets", p.Stats.Gets)
			}
		}(uint64(g)*2654435761 + 1)
	}
	wg.Wait()
}
