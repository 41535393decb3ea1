// Package bufpool provides the zero-allocation buffer discipline of the
// datapath: size-classed free lists of byte slabs, plus a leased Frame type
// with explicit reference-counted ownership for buffers whose lifetime
// branches (retransmission, backend completion, failover drops).
//
// A Pool is deliberately NOT safe for concurrent use, exactly like
// stats.Counters: each simulation cell is single-threaded, and the parallel
// experiment runner gives every cell its own engine, testbed, and pool.
// Never share one Pool between cells. The contract is exercised under the
// race detector by the pool stress tests.
//
// Real-wire mode keeps the same rule with a different cell boundary: each
// netwire.Loop goroutine is one cell owning one pool (the loadgen gives
// every worker its own loop, pool, and driver). Socket reader goroutines
// never touch a pool — they circulate private scratch buffers and the loop
// copies each frame into a pool slab before the transport sees it.
//
// Two ownership styles coexist, chosen by lifetime shape:
//
//   - GetRaw/PutRaw loans: a plain []byte slab with a single owner at any
//     moment. Ownership transfers by convention (documented per call site);
//     PutRaw adopts any slab whose capacity is exactly a class size, so
//     buffers circulate freely between the pools of communicating
//     components. Dropping a loan on an error path is always safe — the
//     slab just falls back to the garbage collector.
//
//   - Get/Frame leases: a refcounted *Frame for buffers that outlive the
//     call that produced them along more than one path (a block request
//     retained by the storage backend, retransmission sources). Retain
//     before handing a reference across an asynchronous boundary; Release
//     when done. The final Release recycles both slab and Frame.
package bufpool

import "fmt"

// Size classes are powers of two from 64 B to 128 KiB: Ethernet frames and
// ring segments (2 KiB), jumbo TSO fragments (8–16 KiB), and full 64 KiB
// transport messages plus headers all land on an exact class.
const (
	minClassShift = 6  // 64 B
	maxClassShift = 17 // 128 KiB
	numClasses    = maxClassShift - minClassShift + 1

	// MaxPooled is the largest pooled buffer; bigger requests fall through
	// to the allocator.
	MaxPooled = 1 << maxClassShift

	// defaultClassCap bounds retained slabs per class so a burst cannot pin
	// memory forever: 256 slabs of 128 KiB is 32 MiB worst case per pool.
	defaultClassCap = 256
)

// classFor returns the class index for a buffer of n bytes, or -1 when n
// exceeds the largest class.
func classFor(n int) int {
	if n > MaxPooled {
		return -1
	}
	c := 0
	for sz := 1 << minClassShift; sz < n; sz <<= 1 {
		c++
	}
	return c
}

// classSize is the slab capacity of class c.
func classSize(c int) int { return 1 << (minClassShift + c) }

// Stats counts pool traffic, for tests and the memory-profile narrative.
type Stats struct {
	// Gets/Puts count raw-loan traffic (Frame leases included).
	Gets, Puts uint64
	// Misses counts Gets served by the allocator (empty class or oversize).
	Misses uint64
	// Adopted counts foreign slabs accepted by PutRaw; Dropped counts
	// buffers PutRaw declined (odd capacity, or a full class).
	Adopted, Dropped uint64
}

// Pool is one simulation cell's buffer pool. The zero value is NOT ready;
// use New.
type Pool struct {
	classes  [numClasses][][]byte
	frames   []*Frame
	classCap int

	// Stats is exported for tests and profiling narratives.
	Stats Stats
}

// New returns an empty pool.
func New() *Pool {
	return &Pool{classCap: defaultClassCap}
}

// GetRaw returns a slab of length n whose capacity is the exact class size
// (or exactly n when n exceeds MaxPooled). The caller owns it until PutRaw
// or abandonment.
func (p *Pool) GetRaw(n int) []byte {
	p.Stats.Gets++
	c := classFor(n)
	if c < 0 {
		p.Stats.Misses++
		return make([]byte, n)
	}
	if free := p.classes[c]; len(free) > 0 {
		b := free[len(free)-1]
		free[len(free)-1] = nil
		p.classes[c] = free[:len(free)-1]
		return b[:n]
	}
	p.Stats.Misses++
	return make([]byte, n, classSize(c))
}

// PutRaw returns a slab to the pool. Only slabs whose capacity is exactly a
// class size are adopted (this is how buffers allocated by a peer's pool —
// or by this one — are recognized); anything else is declined and left to
// the garbage collector. It reports whether the slab was adopted.
func (p *Pool) PutRaw(b []byte) bool {
	p.Stats.Puts++
	c := cap(b)
	if c == 0 {
		p.Stats.Dropped++
		return false
	}
	cls := classFor(c)
	if cls < 0 || classSize(cls) != c || len(p.classes[cls]) >= p.classCap {
		p.Stats.Dropped++
		return false
	}
	p.classes[cls] = append(p.classes[cls], b[:0])
	p.Stats.Adopted++
	return true
}

// Place returns slab[:off+len(data)] with data at offset off, keeping the
// off header bytes. It copies only when data is not already there — a read
// served straight into the slab comes back in place — and trades slab for a
// larger one from p when data does not fit. The caller owns the result as
// it owned slab.
func (p *Pool) Place(slab []byte, off int, data []byte) []byte {
	n := off + len(data)
	if n > cap(slab) {
		grown := p.GetRaw(n)
		copy(grown, slab[:off])
		copy(grown[off:], data)
		p.PutRaw(slab)
		return grown
	}
	slab = slab[:n]
	if len(data) > 0 && &slab[off] != &data[0] {
		copy(slab[off:], data)
	}
	return slab
}

// Frame is a leased buffer with explicit reference counting. B is the valid
// byte view; the backing slab (which may be larger, or start before B when
// the frame wraps an offset view) returns to the pool on the final Release.
type Frame struct {
	// B is the leased bytes. Valid only while the lease is live.
	B []byte

	pool *Pool
	slab []byte
	refs int
}

// Get leases a frame of n bytes with an initial reference count of 1.
func (p *Pool) Get(n int) *Frame {
	f := p.newFrame()
	f.slab = p.GetRaw(n)
	f.B = f.slab
	return f
}

// Wrap leases a frame whose view is a slice of an existing slab — e.g. a
// message payload behind a transport header. The whole slab is recycled on
// the final Release, so the caller transfers ownership of slab here.
func (p *Pool) Wrap(slab, view []byte) *Frame {
	f := p.newFrame()
	f.slab = slab
	f.B = view
	return f
}

func (p *Pool) newFrame() *Frame {
	if n := len(p.frames); n > 0 {
		f := p.frames[n-1]
		p.frames[n-1] = nil
		p.frames = p.frames[:n-1]
		f.refs = 1
		return f
	}
	return &Frame{pool: p, refs: 1}
}

// Bytes returns the leased view (nil for a nil frame).
func (f *Frame) Bytes() []byte {
	if f == nil {
		return nil
	}
	return f.B
}

// Retain adds a reference. Call it before handing the frame across an
// asynchronous boundary that outlives the caller's own Release.
func (f *Frame) Retain() {
	if f == nil {
		return
	}
	if f.refs <= 0 {
		panic("bufpool: Retain after final Release")
	}
	f.refs++
}

// Release drops a reference. The final Release invalidates B and recycles
// slab and Frame; touching either afterwards is a use-after-free. Safe on a
// nil frame (error paths can release unconditionally).
func (f *Frame) Release() {
	if f == nil {
		return
	}
	if f.refs <= 0 {
		panic("bufpool: Release after final Release")
	}
	f.refs--
	if f.refs > 0 {
		return
	}
	p := f.pool
	if f.slab != nil {
		p.PutRaw(f.slab[:cap(f.slab)])
	}
	f.slab = nil
	f.B = nil
	if len(p.frames) < p.classCap {
		p.frames = append(p.frames, f)
	}
}

// Refs reports the current reference count (0 after the final Release).
func (f *Frame) Refs() int {
	if f == nil {
		return 0
	}
	return f.refs
}

// FreeSlabs reports pooled slabs across all classes (test visibility).
func (p *Pool) FreeSlabs() int {
	n := 0
	for _, c := range p.classes {
		n += len(c)
	}
	return n
}

// CheckFree reports a slab that sits on the free lists twice — the trace a
// double PutRaw leaves behind, which the next two GetRaws would turn into
// one buffer with two owners. It walks every free list, so it is for tests
// and debugging, not the datapath.
func (p *Pool) CheckFree() error {
	seen := make(map[*byte]bool)
	for c, free := range p.classes {
		for _, b := range free {
			first := &b[:1][0] // free slabs keep their class-size capacity
			if seen[first] {
				return fmt.Errorf("bufpool: %d-byte slab %p is on the free list twice", classSize(c), first)
			}
			seen[first] = true
		}
	}
	return nil
}
