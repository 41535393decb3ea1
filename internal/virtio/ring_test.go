package virtio

import (
	"bytes"
	"testing"
	"testing/quick"

	"vrio/internal/sim"
)

func mustRing(t *testing.T, qsize, seg int) *Ring {
	t.Helper()
	r, err := NewRing(qsize, seg)
	if err != nil {
		t.Fatalf("NewRing(%d, %d): %v", qsize, seg, err)
	}
	return r
}

func TestNewRingValidation(t *testing.T) {
	bad := []struct{ q, s int }{
		{0, 4096}, {1, 4096}, {3, 4096}, {65536, 4096}, {256, 1}, {256, 0},
	}
	for _, c := range bad {
		if _, err := NewRing(c.q, c.s); err == nil {
			t.Errorf("NewRing(%d, %d) accepted", c.q, c.s)
		}
	}
	good := []struct{ q, s int }{{2, 64}, {256, 4096}, {32768, 128}}
	for _, c := range good {
		if _, err := NewRing(c.q, c.s); err != nil {
			t.Errorf("NewRing(%d, %d) rejected: %v", c.q, c.s, err)
		}
	}
}

// Payload slots are backed on first touch: a ring cycling one 4-descriptor
// request backs those 4 slots and no others, and every round trip still
// carries its bytes.
func TestRingBacksSlotsOnFirstTouch(t *testing.T) {
	r := mustRing(t, 256, 2048)
	backed := func() int {
		n := 0
		for _, s := range r.segs {
			if s != nil {
				n++
			}
		}
		return n
	}
	if n := backed(); n != 0 {
		t.Fatalf("a fresh ring backs %d slots", n)
	}
	var c Chain
	var batch ReapBatch
	for i := 0; i < 100; i++ {
		out := bytes.Repeat([]byte{byte(i)}, 3000)
		if _, err := r.Add(out, 3000); err != nil {
			t.Fatal(err)
		}
		if ok, err := r.PopInto(&c); !ok || err != nil || !bytes.Equal(c.Out, out) {
			t.Fatalf("round %d: pop ok=%v err=%v", i, ok, err)
		}
		r.Push(c, out)
		if r.ReapInto(&batch, 0) != 1 || !bytes.Equal(batch.Completions[0].In, out) {
			t.Fatalf("round %d: response lost", i)
		}
	}
	if n := backed(); n != 4 {
		t.Errorf("backed %d slots, want the 4 the request cycles", n)
	}
}

func TestRingEchoSingleSegment(t *testing.T) {
	r := mustRing(t, 16, 256)
	msg := []byte("hello from the guest")
	head, err := r.Add(msg, 64)
	if err != nil {
		t.Fatal(err)
	}

	c, ok, err := r.Pop()
	if err != nil || !ok {
		t.Fatalf("Pop: ok=%v err=%v", ok, err)
	}
	if c.Head != head {
		t.Errorf("chain head %d, want %d", c.Head, head)
	}
	if !bytes.Equal(c.Out, msg) {
		t.Errorf("device saw %q, want %q", c.Out, msg)
	}
	if c.InCapacity() != 64 {
		t.Errorf("InCapacity = %d, want 64", c.InCapacity())
	}

	reply := []byte("response")
	if n := r.Push(c, reply); n != len(reply) {
		t.Errorf("Push wrote %d, want %d", n, len(reply))
	}

	comps := r.Reap(0)
	if len(comps) != 1 {
		t.Fatalf("Reap returned %d completions", len(comps))
	}
	if comps[0].Head != head {
		t.Errorf("completion head %d, want %d", comps[0].Head, head)
	}
	if !bytes.Equal(comps[0].In, reply) {
		t.Errorf("driver saw reply %q, want %q", comps[0].In, reply)
	}
	if r.FreeDescriptors() != 16 {
		t.Errorf("descriptors leaked: %d free, want 16", r.FreeDescriptors())
	}
}

func TestRingMultiSegmentChain(t *testing.T) {
	r := mustRing(t, 64, 64)
	// 300 bytes out needs 5 segments of 64; 100 in needs 2.
	msg := bytes.Repeat([]byte{0xAB}, 300)
	msg[0], msg[299] = 1, 2
	if _, err := r.Add(msg, 100); err != nil {
		t.Fatal(err)
	}
	if free := r.FreeDescriptors(); free != 64-7 {
		t.Errorf("free = %d, want %d", free, 64-7)
	}
	c, ok, err := r.Pop()
	if err != nil || !ok {
		t.Fatalf("Pop: %v %v", ok, err)
	}
	if !bytes.Equal(c.Out, msg) {
		t.Errorf("multi-segment out data corrupted (len %d vs %d)", len(c.Out), len(msg))
	}
	if c.InCapacity() != 100 {
		t.Errorf("InCapacity = %d, want 100", c.InCapacity())
	}
	reply := bytes.Repeat([]byte{7}, 100)
	r.Push(c, reply)
	comps := r.Reap(0)
	if len(comps) != 1 || !bytes.Equal(comps[0].In, reply) {
		t.Error("multi-segment reply corrupted")
	}
}

func TestRingPushTruncatesToCapacity(t *testing.T) {
	r := mustRing(t, 16, 64)
	if _, err := r.Add([]byte("req"), 10); err != nil {
		t.Fatal(err)
	}
	c, _, _ := r.Pop()
	n := r.Push(c, bytes.Repeat([]byte{1}, 100))
	if n != 10 {
		t.Errorf("Push wrote %d, want truncation to 10", n)
	}
	comps := r.Reap(0)
	if len(comps[0].In) != 10 {
		t.Errorf("driver got %d bytes, want 10", len(comps[0].In))
	}
}

func TestRingOutOnlyAndInOnly(t *testing.T) {
	r := mustRing(t, 16, 128)
	// Out-only (e.g. a net transmit).
	if _, err := r.Add([]byte("tx"), 0); err != nil {
		t.Fatal(err)
	}
	c, _, _ := r.Pop()
	if c.InCapacity() != 0 || string(c.Out) != "tx" {
		t.Error("out-only chain wrong")
	}
	r.Push(c, nil)
	r.Reap(0)

	// In-only (e.g. posting an rx buffer).
	if _, err := r.Add(nil, 100); err != nil {
		t.Fatal(err)
	}
	c2, _, _ := r.Pop()
	if c2.InCapacity() != 100 || len(c2.Out) != 0 {
		t.Error("in-only chain wrong")
	}
	r.Push(c2, []byte("rx data"))
	comps := r.Reap(0)
	if string(comps[0].In) != "rx data" {
		t.Errorf("rx data = %q", comps[0].In)
	}
}

func TestRingEmptyRequestRejected(t *testing.T) {
	r := mustRing(t, 16, 64)
	if _, err := r.Add(nil, 0); err != ErrEmptyRequest {
		t.Errorf("err = %v, want ErrEmptyRequest", err)
	}
}

func TestRingFullBehaviour(t *testing.T) {
	r := mustRing(t, 4, 64)
	for i := 0; i < 4; i++ {
		if _, err := r.Add([]byte{byte(i)}, 0); err != nil {
			t.Fatalf("Add %d: %v", i, err)
		}
	}
	if _, err := r.Add([]byte{9}, 0); err != ErrRingFull {
		t.Errorf("err = %v, want ErrRingFull", err)
	}
	// Device drains one; driver can post again.
	c, _, _ := r.Pop()
	r.Push(c, nil)
	r.Reap(0)
	if _, err := r.Add([]byte{9}, 0); err != nil {
		t.Errorf("Add after drain: %v", err)
	}
}

func TestRingTooLargeRejected(t *testing.T) {
	r := mustRing(t, 4, 64)
	if _, err := r.Add(make([]byte, 64*5), 0); err != ErrTooLarge {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
}

func TestRingPopEmptyRing(t *testing.T) {
	r := mustRing(t, 16, 64)
	if _, ok, err := r.Pop(); ok || err != nil {
		t.Errorf("Pop on empty: ok=%v err=%v", ok, err)
	}
	if r.HasAvail() {
		t.Error("HasAvail on empty ring")
	}
}

func TestRingOrderPreserved(t *testing.T) {
	r := mustRing(t, 64, 64)
	const n = 20
	heads := make([]uint16, n)
	for i := 0; i < n; i++ {
		h, err := r.Add([]byte{byte(i)}, 0)
		if err != nil {
			t.Fatal(err)
		}
		heads[i] = h
	}
	for i := 0; i < n; i++ {
		c, ok, err := r.Pop()
		if !ok || err != nil {
			t.Fatalf("Pop %d: %v %v", i, ok, err)
		}
		if c.Head != heads[i] {
			t.Fatalf("Pop %d returned head %d, want %d (FIFO violated)", i, c.Head, heads[i])
		}
		if c.Out[0] != byte(i) {
			t.Fatalf("Pop %d returned payload %d", i, c.Out[0])
		}
		r.Push(c, nil)
	}
	comps := r.Reap(0)
	for i, comp := range comps {
		if comp.Head != heads[i] {
			t.Fatalf("Reap %d returned head %d, want %d", i, comp.Head, heads[i])
		}
	}
}

func TestRingReapMax(t *testing.T) {
	r := mustRing(t, 64, 64)
	for i := 0; i < 5; i++ {
		if _, err := r.Add([]byte{byte(i)}, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		c, _, _ := r.Pop()
		r.Push(c, nil)
	}
	if got := len(r.Reap(2)); got != 2 {
		t.Errorf("Reap(2) returned %d", got)
	}
	if got := len(r.Reap(0)); got != 3 {
		t.Errorf("Reap(0) returned %d, want remaining 3", got)
	}
}

func TestRingIndexWraparound(t *testing.T) {
	r := mustRing(t, 4, 64)
	// Push enough traffic through to wrap the 16-bit indices many times
	// relative to qsize and ensure nothing corrupts.
	for i := 0; i < 10000; i++ {
		msg := []byte{byte(i), byte(i >> 8)}
		if _, err := r.Add(msg, 8); err != nil {
			t.Fatal(err)
		}
		c, ok, err := r.Pop()
		if !ok || err != nil {
			t.Fatalf("iter %d: Pop %v %v", i, ok, err)
		}
		if !bytes.Equal(c.Out, msg) {
			t.Fatalf("iter %d: corrupt request", i)
		}
		r.Push(c, []byte{c.Out[0]})
		comps := r.Reap(0)
		if len(comps) != 1 || comps[0].In[0] != byte(i) {
			t.Fatalf("iter %d: corrupt completion", i)
		}
	}
	if r.Kicks() != 10000 || r.Completions() != 10000 {
		t.Errorf("kicks=%d completions=%d", r.Kicks(), r.Completions())
	}
}

func TestRingInFlight(t *testing.T) {
	r := mustRing(t, 16, 64)
	r.Add([]byte{1}, 0)
	r.Add([]byte{2}, 0)
	if r.InFlight() != 2 {
		t.Errorf("InFlight = %d, want 2", r.InFlight())
	}
	c, _, _ := r.Pop()
	r.Push(c, nil)
	r.Reap(0)
	if r.InFlight() != 1 {
		t.Errorf("InFlight = %d, want 1", r.InFlight())
	}
}

// Property: echoing arbitrary payloads through the ring preserves bytes and
// never leaks descriptors.
func TestRingEchoProperty(t *testing.T) {
	r := mustRing(t, 256, 128)
	f := func(payload []byte, inLen uint16) bool {
		in := int(inLen % 2048)
		if len(payload) == 0 && in == 0 {
			return true
		}
		if len(payload) > 8192 {
			payload = payload[:8192]
		}
		before := r.FreeDescriptors()
		if _, err := r.Add(payload, in); err != nil {
			// Full is acceptable only if the request genuinely didn't fit.
			return err == ErrRingFull || err == ErrTooLarge
		}
		c, ok, err := r.Pop()
		if !ok || err != nil {
			return false
		}
		if !bytes.Equal(c.Out, payload) {
			return false
		}
		echo := payload
		if len(echo) > in {
			echo = echo[:in]
		}
		r.Push(c, echo)
		comps := r.Reap(0)
		if len(comps) != 1 || !bytes.Equal(comps[0].In, echo) {
			return false
		}
		return r.FreeDescriptors() == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// The ring is the mechanism Elvis polls; verify that the poll predicate is
// cheap and correct across a simulated polling loop.
func TestRingPollLoopSimulation(t *testing.T) {
	r := mustRing(t, 16, 64)
	e := sim.NewEngine()
	served := 0
	// Guest posts 5 requests at t=10,20,...
	for i := 1; i <= 5; i++ {
		e.At(sim.Time(i*10), func() {
			if _, err := r.Add([]byte("req"), 4); err != nil {
				t.Errorf("Add: %v", err)
			}
		})
	}
	// Sidecore polls every 3ns.
	stop := e.Ticker(3, func() {
		for r.HasAvail() {
			c, ok, err := r.Pop()
			if !ok || err != nil {
				t.Fatalf("Pop: %v %v", ok, err)
			}
			r.Push(c, []byte("ok"))
			served++
		}
	})
	e.RunUntil(100)
	stop()
	if served != 5 {
		t.Errorf("poll loop served %d, want 5", served)
	}
	if got := len(r.Reap(0)); got != 5 {
		t.Errorf("driver reaped %d, want 5", got)
	}
}
