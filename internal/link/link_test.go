package link

import (
	"testing"

	"vrio/internal/ethernet"
	"vrio/internal/sim"
)

func TestWireDeliversWithLatencyAndSerialization(t *testing.T) {
	e := sim.NewEngine()
	var arrived sim.Time
	w := NewWire(e, 8e9, 100, ReceiverFunc(func(frame []byte) { arrived = e.Now() })) // 1 byte/ns
	w.Send(make([]byte, 976))                                                         // +24 overhead = 1000 bytes = 1000ns
	e.Run()
	if arrived != 1100 {
		t.Errorf("arrived at %v, want 1100 (1000 serialization + 100 latency)", arrived)
	}
	if w.Frames != 1 || w.Bytes != 976 {
		t.Errorf("Frames=%d Bytes=%d", w.Frames, w.Bytes)
	}
}

func TestWireSerializesBackToBack(t *testing.T) {
	e := sim.NewEngine()
	var arrivals []sim.Time
	w := NewWire(e, 8e9, 0, ReceiverFunc(func([]byte) { arrivals = append(arrivals, e.Now()) }))
	// Two frames sent at t=0: second must wait for the first's serialization.
	w.Send(make([]byte, 976))
	w.Send(make([]byte, 976))
	e.Run()
	if len(arrivals) != 2 || arrivals[0] != 1000 || arrivals[1] != 2000 {
		t.Errorf("arrivals = %v, want [1000 2000]", arrivals)
	}
}

func TestWireBandwidthMatters(t *testing.T) {
	e := sim.NewEngine()
	var slow, fast sim.Time
	w10 := NewWire(e, 10e9, 0, ReceiverFunc(func([]byte) { slow = e.Now() }))
	w40 := NewWire(e, 40e9, 0, ReceiverFunc(func([]byte) { fast = e.Now() }))
	frame := make([]byte, 9976) // 10000 wire bytes
	w10.Send(frame)
	w40.Send(frame)
	e.Run()
	if slow != 4*fast {
		t.Errorf("10G took %v, 40G took %v; want exactly 4x", slow, fast)
	}
}

func TestWireValidation(t *testing.T) {
	e := sim.NewEngine()
	mustPanic := func(fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		fn()
	}
	mustPanic(func() { NewWire(e, 0, 0, nil) })
	mustPanic(func() { NewWire(e, 1e9, -1, nil) })
}

func TestWireUtilization(t *testing.T) {
	e := sim.NewEngine()
	w := NewWire(e, 8e9, 0, ReceiverFunc(func([]byte) {}))
	w.Send(make([]byte, 976)) // 1000ns serialization at 1B/ns
	e.At(2000, func() {})
	e.Run()
	// 976 bytes carried in 2000ns on an 8Gbps wire: 976*8/2000e-9/8e9.
	want := float64(976*8) / (2000e-9) / 8e9
	if got := w.Utilization(); got < want*0.99 || got > want*1.01 {
		t.Errorf("Utilization = %v, want %v", got, want)
	}
}

func frameBytes(t *testing.T, src, dst ethernet.MAC, payload string) []byte {
	t.Helper()
	f := ethernet.Frame{Dst: dst, Src: src, EtherType: ethernet.EtherTypePlain, Payload: []byte(payload)}
	b, err := f.Encode(0)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// endpoint collects frames for switch tests.
type endpoint struct {
	mac    ethernet.MAC
	cable  *Duplex
	frames []string
}

func attachEndpoint(t *testing.T, e *sim.Engine, sw *Switch, node uint32) *endpoint {
	t.Helper()
	ep := &endpoint{mac: ethernet.NewMAC(node)}
	ep.cable = NewDuplex(e, 10e9, 10)
	sw.AttachPort(ep.cable)
	ep.cable.BtoA.SetReceiver(ReceiverFunc(func(frame []byte) {
		f, err := ethernet.Decode(frame)
		if err != nil {
			t.Errorf("endpoint decode: %v", err)
			return
		}
		ep.frames = append(ep.frames, string(f.Payload))
	}))
	return ep
}

func TestSwitchLearnsAndForwards(t *testing.T) {
	e := sim.NewEngine()
	sw := NewSwitch(e, 50)
	a := attachEndpoint(t, e, sw, 1)
	b := attachEndpoint(t, e, sw, 2)
	c := attachEndpoint(t, e, sw, 3)

	// First frame to an unknown MAC floods.
	a.cable.AtoB.Send(frameBytes(t, a.mac, b.mac, "hello"))
	e.Run()
	if len(b.frames) != 1 || b.frames[0] != "hello" {
		t.Errorf("b got %v", b.frames)
	}
	if len(c.frames) != 1 {
		t.Errorf("first frame should flood to c too, got %v", c.frames)
	}
	if sw.Flooded != 1 {
		t.Errorf("Flooded = %d, want 1", sw.Flooded)
	}

	// b replies; switch has learned a's port, so c sees nothing new.
	b.cable.AtoB.Send(frameBytes(t, b.mac, a.mac, "re:hello"))
	e.Run()
	if len(a.frames) != 1 || a.frames[0] != "re:hello" {
		t.Errorf("a got %v", a.frames)
	}
	if len(c.frames) != 1 {
		t.Errorf("reply leaked to c: %v", c.frames)
	}
	if sw.Forwarded != 1 {
		t.Errorf("Forwarded = %d, want 1", sw.Forwarded)
	}

	// Now a->b is learned: no flooding.
	a.cable.AtoB.Send(frameBytes(t, a.mac, b.mac, "again"))
	e.Run()
	if len(b.frames) != 2 {
		t.Errorf("b got %v", b.frames)
	}
	if len(c.frames) != 1 {
		t.Errorf("learned forward leaked to c: %v", c.frames)
	}
}

func TestSwitchBroadcast(t *testing.T) {
	e := sim.NewEngine()
	sw := NewSwitch(e, 0)
	a := attachEndpoint(t, e, sw, 1)
	b := attachEndpoint(t, e, sw, 2)
	c := attachEndpoint(t, e, sw, 3)
	a.cable.AtoB.Send(frameBytes(t, a.mac, ethernet.Broadcast, "bcast"))
	e.Run()
	if len(a.frames) != 0 {
		t.Error("broadcast echoed to sender")
	}
	if len(b.frames) != 1 || len(c.frames) != 1 {
		t.Errorf("broadcast not delivered: b=%v c=%v", b.frames, c.frames)
	}
}

// Every receiver owns the frame it is handed and may recycle it into a
// buffer pool, so a flood must hand each egress port its own backing array:
// a shared one would be returned to the pool once per port.
func TestSwitchFloodGivesEachPortItsOwnCopy(t *testing.T) {
	capture := func(got *[][]byte) Receiver {
		return ReceiverFunc(func(frame []byte) { *got = append(*got, frame) })
	}
	check := func(t *testing.T, got [][]byte, want []byte, ports int) {
		t.Helper()
		if len(got) != ports {
			t.Fatalf("flood reached %d ports, want %d", len(got), ports)
		}
		seen := map[*byte]bool{}
		for i, b := range got {
			if string(b) != string(want) {
				t.Errorf("port copy %d = %q, want %q", i, b, want)
			}
			if seen[&b[0]] {
				t.Errorf("port copy %d shares a backing array with another port", i)
			}
			seen[&b[0]] = true
		}
	}

	t.Run("leaf", func(t *testing.T) {
		// Three host ports plus one uplink besides the ingress port.
		e := sim.NewEngine()
		sw := NewSwitch(e, 0)
		var got [][]byte
		in := NewDuplex(e, 10e9, 10)
		sw.AttachPort(in)
		for i := 0; i < 3; i++ {
			c := NewDuplex(e, 10e9, 10)
			sw.AttachPort(c)
			c.BtoA.SetReceiver(capture(&got))
		}
		up := NewDuplex(e, 10e9, 10)
		sw.AttachUplink(up)
		up.AtoB.SetReceiver(capture(&got))
		frame := frameBytes(t, ethernet.NewMAC(1), ethernet.Broadcast, "flood")
		want := append([]byte(nil), frame...)
		in.AtoB.Send(frame)
		e.Run()
		check(t, got, want, 4)
	})

	t.Run("spine", func(t *testing.T) {
		e := sim.NewEngine()
		sw := NewSwitch(e, 0)
		var got [][]byte
		in := NewDuplex(e, 10e9, 10)
		sw.SetRackPort(0, sw.AttachPort(in))
		for i := 1; i <= 3; i++ {
			c := NewDuplex(e, 10e9, 10)
			sw.SetRackPort(i, sw.AttachPort(c))
			c.BtoA.SetReceiver(capture(&got))
		}
		frame := frameBytes(t, ethernet.NewMAC(1), ethernet.Broadcast, "spine-bcast")
		want := append([]byte(nil), frame...)
		in.AtoB.Send(frame)
		e.Run()
		check(t, got, want, 3)
	})
}

func TestSwitchHairpinSuppressed(t *testing.T) {
	e := sim.NewEngine()
	sw := NewSwitch(e, 0)
	a := attachEndpoint(t, e, sw, 1)
	b := attachEndpoint(t, e, sw, 2)
	// Learn both ports.
	a.cable.AtoB.Send(frameBytes(t, a.mac, b.mac, "x"))
	b.cable.AtoB.Send(frameBytes(t, b.mac, a.mac, "y"))
	e.Run()
	// A frame from a addressed to a's own learned port must not come back.
	before := len(a.frames)
	a.cable.AtoB.Send(frameBytes(t, a.mac, a.mac, "self"))
	e.Run()
	if len(a.frames) != before {
		t.Error("switch hairpinned a frame back out its ingress port")
	}
}

func TestSwitchDropsRuntFrames(t *testing.T) {
	e := sim.NewEngine()
	sw := NewSwitch(e, 0)
	a := attachEndpoint(t, e, sw, 1)
	b := attachEndpoint(t, e, sw, 2)
	a.cable.AtoB.Send([]byte{1, 2, 3}) // shorter than an Ethernet header
	e.Run()
	if len(b.frames) != 0 {
		t.Error("runt frame forwarded")
	}
	if sw.Flooded != 0 && sw.Forwarded != 0 {
		t.Error("runt frame counted")
	}
	if got := sw.Drops.Get(DropRunt); got != 1 {
		t.Errorf("runt drop tally = %d, want 1 — drops must never be silent", got)
	}
	if sw.Drops.Total() != 1 {
		t.Errorf("Drops.Total() = %d, want 1", sw.Drops.Total())
	}
}

// scriptedFault replays a fixed verdict sequence, for wire-level tests.
type scriptedFault struct {
	verdicts []FaultVerdict
	corrupt  func(frame []byte) // mutation applied on FaultCorrupt
	i        int
}

func (s *scriptedFault) Apply(frame []byte) FaultVerdict {
	if s.i >= len(s.verdicts) {
		return FaultVerdict{}
	}
	v := s.verdicts[s.i]
	s.i++
	if v.Action == FaultCorrupt && s.corrupt != nil {
		s.corrupt(frame)
	}
	return v
}

// TestWireFaultConservation is the accounting invariant: every frame offered
// to a faulted wire is either delivered or tallied under exactly one drop
// reason — frames in == delivered + sum(drops{reason}).
func TestWireFaultConservation(t *testing.T) {
	e := sim.NewEngine()
	delivered := 0
	w := NewWire(e, 8e9, 100, ReceiverFunc(func([]byte) { delivered++ }))
	w.SetFault(&scriptedFault{
		verdicts: []FaultVerdict{
			{},                     // clean
			{Action: FaultDrop},    // lost in flight
			{Action: FaultCorrupt}, // bit flip → FCS drop at delivery
			{Extra: 5000},          // jittered but intact
			{},                     // clean
			{Action: FaultDrop},    // lost
			{Action: FaultCorrupt}, // another flip
			{Extra: 200},           // small jitter
		},
		corrupt: func(f []byte) { f[len(f)-1] ^= 0x40 },
	})
	for i := 0; i < 8; i++ {
		w.Send(frameBytes(t, ethernet.NewMAC(1), ethernet.NewMAC(2), "payload"))
	}
	e.Run()
	if delivered != 4 {
		t.Errorf("delivered %d frames, want 4", delivered)
	}
	if w.Delivered != uint64(delivered) {
		t.Errorf("Delivered counter = %d, receiver saw %d", w.Delivered, delivered)
	}
	if got := w.Drops.Get(DropInjected); got != 2 {
		t.Errorf("injected drops = %d, want 2", got)
	}
	if got := w.Drops.Get(DropCorruptFCS); got != 2 {
		t.Errorf("corrupt-FCS drops = %d, want 2", got)
	}
	if w.Corrupted != 2 {
		t.Errorf("Corrupted = %d, want 2", w.Corrupted)
	}
	if w.Frames != w.Delivered+w.Drops.Total() {
		t.Errorf("conservation violated: %d sent != %d delivered + %d dropped",
			w.Frames, w.Delivered, w.Drops.Total())
	}
}

// TestWireFCSDetectsCorruption: a single bit flipped in flight must never
// reach the receiver — CRC32 catches all single-bit errors.
func TestWireFCSDetectsCorruption(t *testing.T) {
	e := sim.NewEngine()
	w := NewWire(e, 8e9, 0, ReceiverFunc(func([]byte) {
		t.Error("corrupt frame delivered to receiver")
	}))
	w.SetFault(&scriptedFault{
		verdicts: []FaultVerdict{{Action: FaultCorrupt}},
		corrupt:  func(f []byte) { f[0] ^= 0x01 },
	})
	w.Send(frameBytes(t, ethernet.NewMAC(1), ethernet.NewMAC(2), "x"))
	e.Run()
	if got := w.Drops.Get(DropCorruptFCS); got != 1 {
		t.Errorf("corrupt-FCS drops = %d, want 1", got)
	}
}

// TestWireJitterReorders: a jittered frame leaves the FIFO fast path, so a
// later clean frame overtakes it — delay faults produce reordering.
func TestWireJitterReorders(t *testing.T) {
	e := sim.NewEngine()
	var order []string
	w := NewWire(e, 8e9, 100, ReceiverFunc(func(frame []byte) {
		f, err := ethernet.Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		order = append(order, string(f.Payload))
	}))
	w.SetFault(&scriptedFault{verdicts: []FaultVerdict{{Extra: 50000}, {}}})
	w.Send(frameBytes(t, ethernet.NewMAC(1), ethernet.NewMAC(2), "first"))
	w.Send(frameBytes(t, ethernet.NewMAC(1), ethernet.NewMAC(2), "second"))
	e.Run()
	if len(order) != 2 || order[0] != "second" || order[1] != "first" {
		t.Errorf("arrival order = %v, want [second first]", order)
	}
	if w.Frames != w.Delivered+w.Drops.Total() {
		t.Errorf("conservation violated under jitter")
	}
}

// TestWireNilFaultUnchanged: detaching the injector restores the exact
// fast-path behaviour (no FCS verification, strict FIFO).
func TestWireNilFaultUnchanged(t *testing.T) {
	e := sim.NewEngine()
	delivered := 0
	w := NewWire(e, 8e9, 0, ReceiverFunc(func([]byte) { delivered++ }))
	w.SetFault(&scriptedFault{verdicts: []FaultVerdict{{Action: FaultDrop}}})
	w.Send(frameBytes(t, ethernet.NewMAC(1), ethernet.NewMAC(2), "a"))
	w.SetFault(nil)
	w.Send(frameBytes(t, ethernet.NewMAC(1), ethernet.NewMAC(2), "b"))
	e.Run()
	if delivered != 1 {
		t.Errorf("delivered %d, want 1 (first dropped, second clean)", delivered)
	}
	if w.Frames != w.Delivered+w.Drops.Total() {
		t.Errorf("conservation violated across attach/detach")
	}
}

// TestDropReasonStrings pins the metric label names.
func TestDropReasonStrings(t *testing.T) {
	want := map[DropReason]string{
		DropRunt: "runt", DropCorruptFCS: "corrupt_fcs", DropInjected: "injected",
		DropReason(99): "unknown",
	}
	for r, s := range want {
		if r.String() != s {
			t.Errorf("DropReason(%d).String() = %q, want %q", r, r.String(), s)
		}
	}
}

func TestSwitchLatencyAddsUp(t *testing.T) {
	e := sim.NewEngine()
	sw := NewSwitch(e, 500)
	a := attachEndpoint(t, e, sw, 1)
	b := attachEndpoint(t, e, sw, 2)
	var arrival sim.Time
	b.cable.BtoA.SetReceiver(ReceiverFunc(func(frame []byte) { arrival = e.Now() }))
	a.cable.AtoB.Send(frameBytes(t, a.mac, b.mac, "t"))
	e.Run()
	// serialization (tiny) + wire 10 + switch 500 + serialization + wire 10.
	if arrival < 520 || arrival > 600 {
		t.Errorf("arrival = %v, want ≈520-600", arrival)
	}
}

// Merge folds per-carrier drop tallies into one breakdown, reason by
// reason, preserving the conservation identity across the roll-up.
func TestDropStatsMerge(t *testing.T) {
	var a, b DropStats
	a.Count(DropRunt)
	a.Count(DropInjected)
	b.Count(DropInjected)
	b.Count(DropCorruptFCS)
	b.Count(DropCorruptFCS)
	a.Merge(&b)
	if a.Get(DropRunt) != 1 || a.Get(DropInjected) != 2 || a.Get(DropCorruptFCS) != 2 {
		t.Fatalf("merged tallies wrong: %v", a)
	}
	if a.Total() != 5 {
		t.Fatalf("merged total = %d, want 5", a.Total())
	}
	if b.Total() != 3 {
		t.Fatalf("merge mutated its argument: %v", b)
	}
}
