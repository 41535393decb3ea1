package ethernet

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"vrio/internal/bufpool"
)

func reassembleAll(t *testing.T, r *Reassembler, src MAC, frames [][]byte) *Message {
	t.Helper()
	var msg *Message
	for i, fr := range frames {
		m, err := r.Add(src, fr)
		if err != nil {
			t.Fatalf("Add fragment %d: %v", i, err)
		}
		if m != nil {
			if msg != nil {
				t.Fatal("message completed twice")
			}
			msg = m
		}
	}
	return msg
}

func TestReassemblerSingleFragment(t *testing.T) {
	r := NewReassembler(0)
	src := NewMAC(1)
	frames, _ := SegmentMessage(42, 7, []byte("short"), 1500)
	msg := reassembleAll(t, r, src, frames)
	if msg == nil {
		t.Fatal("message did not complete")
	}
	if string(msg.Data) != "short" || msg.MsgID != 42 || msg.DeviceID != 7 || msg.Src != src {
		t.Errorf("message = %+v", msg)
	}
	if !msg.ZeroCopy || msg.Fragments != 1 {
		t.Errorf("ZeroCopy=%v Fragments=%d", msg.ZeroCopy, msg.Fragments)
	}
	if r.Pending() != 0 {
		t.Errorf("Pending = %d after completion", r.Pending())
	}
}

func TestReassemblerMultiFragment64K(t *testing.T) {
	r := NewReassembler(0)
	src := NewMAC(2)
	data := make([]byte, MaxMessage)
	for i := range data {
		data[i] = byte(i * 31)
	}
	frames, _ := SegmentMessage(100, 1, data, 8100)
	msg := reassembleAll(t, r, src, frames)
	if msg == nil {
		t.Fatal("64KiB message did not complete")
	}
	if !bytes.Equal(msg.Data, data) {
		t.Error("reassembled data corrupted")
	}
	if !msg.ZeroCopy {
		t.Error("MTU-8100 64KiB message should be zero-copy (17 pages)")
	}
	if msg.Fragments != 9 {
		t.Errorf("Fragments = %d, want 9", msg.Fragments)
	}
}

func TestReassemblerMTU9000BreaksZeroCopy(t *testing.T) {
	r := NewReassembler(0)
	src := NewMAC(3)
	data := make([]byte, MaxMessage)
	frames, _ := SegmentMessage(101, 1, data, 9000)
	msg := reassembleAll(t, r, src, frames)
	if msg == nil {
		t.Fatal("message did not complete")
	}
	if msg.ZeroCopy {
		t.Error("MTU-9000 64KiB message must exceed the 17-page budget")
	}
}

func TestReassemblerOutOfOrder(t *testing.T) {
	r := NewReassembler(0)
	src := NewMAC(4)
	data := make([]byte, 40000)
	for i := range data {
		data[i] = byte(i)
	}
	frames, _ := SegmentMessage(5, 2, data, 1500)
	// Deliver in reverse.
	var msg *Message
	for i := len(frames) - 1; i >= 0; i-- {
		m, err := r.Add(src, frames[i])
		if err != nil {
			t.Fatal(err)
		}
		if m != nil {
			msg = m
		}
	}
	if msg == nil || !bytes.Equal(msg.Data, data) {
		t.Error("out-of-order reassembly failed")
	}
}

func TestReassemblerDuplicateFragmentsIgnored(t *testing.T) {
	r := NewReassembler(0)
	src := NewMAC(5)
	data := make([]byte, 20000)
	frames, _ := SegmentMessage(6, 2, data, 1500)
	// Send the first fragment three times, then the rest.
	for i := 0; i < 3; i++ {
		if m, err := r.Add(src, frames[0]); err != nil || m != nil {
			t.Fatalf("dup fragment: m=%v err=%v", m, err)
		}
	}
	msg := reassembleAll(t, r, src, frames[1:])
	if msg == nil {
		t.Fatal("message with duplicates did not complete")
	}
	if msg.Fragments != len(frames) {
		t.Errorf("Fragments = %d, want %d (dups must not count)", msg.Fragments, len(frames))
	}
}

func TestReassemblerInterleavedSourcesAndMessages(t *testing.T) {
	r := NewReassembler(0)
	srcA, srcB := NewMAC(10), NewMAC(11)
	dataA := bytes.Repeat([]byte{0xA}, 30000)
	dataB := bytes.Repeat([]byte{0xB}, 30000)
	framesA, _ := SegmentMessage(1, 1, dataA, 1500)
	framesB, _ := SegmentMessage(1, 1, dataB, 1500) // same msgID, different src
	var done int
	n := len(framesA)
	for i := 0; i < n; i++ {
		if m, _ := r.Add(srcA, framesA[i]); m != nil {
			if !bytes.Equal(m.Data, dataA) {
				t.Error("A corrupted")
			}
			done++
		}
		if m, _ := r.Add(srcB, framesB[i]); m != nil {
			if !bytes.Equal(m.Data, dataB) {
				t.Error("B corrupted")
			}
			done++
		}
	}
	if done != 2 {
		t.Errorf("completed %d messages, want 2", done)
	}
}

func TestReassemblerEviction(t *testing.T) {
	r := NewReassembler(2)
	src := NewMAC(1)
	// Three incomplete messages: the first must be evicted.
	for id := uint32(1); id <= 3; id++ {
		frames, _ := SegmentMessage(id, 1, make([]byte, 5000), 1500)
		if _, err := r.Add(src, frames[0]); err != nil {
			t.Fatal(err)
		}
	}
	if r.Pending() != 2 {
		t.Errorf("Pending = %d, want 2", r.Pending())
	}
	if r.Evictions() != 1 {
		t.Errorf("Evictions = %d, want 1", r.Evictions())
	}
}

func TestReassemblerRejectsGarbage(t *testing.T) {
	r := NewReassembler(0)
	if _, err := r.Add(NewMAC(1), []byte("too short")); err == nil {
		t.Error("garbage fragment accepted")
	}
}

func TestReassemblerEmptyMessage(t *testing.T) {
	r := NewReassembler(0)
	frames, _ := SegmentMessage(9, 4, nil, 1500)
	msg := reassembleAll(t, r, NewMAC(1), frames)
	if msg == nil {
		t.Fatal("empty message did not complete")
	}
	if len(msg.Data) != 0 {
		t.Errorf("empty message data len = %d", len(msg.Data))
	}
}

// Property: segment + shuffle + reassemble = identity, for any payload and
// any valid MTU.
func TestReassemblerShuffleProperty(t *testing.T) {
	r := NewReassembler(0)
	seed := uint32(1)
	next := func(n int) int { // tiny LCG for deterministic shuffles
		seed = seed*1664525 + 1013904223
		return int(seed % uint32(n))
	}
	f := func(payload []byte, mtuRaw uint16) bool {
		if len(payload) > MaxMessage {
			payload = payload[:MaxMessage]
		}
		mtu := 100 + int(mtuRaw%8900)
		frames, err := SegmentMessage(77, 1, payload, mtu)
		if err != nil {
			return false
		}
		for i := len(frames) - 1; i > 0; i-- {
			j := next(i + 1)
			frames[i], frames[j] = frames[j], frames[i]
		}
		var msg *Message
		for _, fr := range frames {
			m, err := r.Add(NewMAC(99), fr)
			if err != nil {
				return false
			}
			if m != nil {
				msg = m
			}
		}
		return msg != nil && bytes.Equal(msg.Data, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// A sender that re-segments a message at another MTU (MTU-4000 fragments
// over an MTU-1500 stream of the same bytes) partially overlaps fragments
// already held. The message completes once, intact, and Fragments counts
// only the fragments that brought new bytes.
func TestReassemblerOverlappingResegmentation(t *testing.T) {
	r := NewReassembler(0)
	src := NewMAC(6)
	data := make([]byte, 20000)
	for i := range data {
		data[i] = byte(i * 13)
	}
	small, _ := SegmentMessage(8, 3, data, 1500) // 14 × 1460 B: a0..a13
	large, _ := SegmentMessage(8, 3, data, 4000) // 6 × 3960 B: b0..b5
	// a0 b0 a1 b1 a2 b2 a3 b3 a4..a13: b4 and b5 are lost, so a13 finishes
	// the message. New bytes come from a0, b0..b3, a10 (past b3's end at
	// 15840), a11, a12 and a13; the other a-fragments are covered already.
	var stream [][]byte
	for i := 0; i < 4; i++ {
		stream = append(stream, small[i], large[i])
	}
	stream = append(stream, small[4:]...)
	var msg *Message
	completions := 0
	for i, fr := range stream {
		m, err := r.Add(src, fr)
		if err != nil {
			t.Fatalf("fragment %d: %v", i, err)
		}
		if m != nil {
			completions++
			if i != len(stream)-1 {
				t.Fatalf("completed at fragment %d of %d", i, len(stream))
			}
			msg = m
		}
	}
	if completions != 1 {
		t.Fatalf("completed %d times, want 1", completions)
	}
	if !bytes.Equal(msg.Data, data) {
		t.Error("reassembled data corrupted")
	}
	if msg.Fragments != 9 {
		t.Errorf("Fragments = %d, want 9 (only fragments with new bytes count)", msg.Fragments)
	}
	if r.Pending() != 0 {
		t.Errorf("Pending = %d after completion", r.Pending())
	}
}

// A remote sender picks Total. One 100-byte fragment claiming 256 MiB must
// be refused before the reassembler draws a buffer or a coverage bitmap.
func TestReassemblerRejectsOversizeTotal(t *testing.T) {
	b := make([]byte, 100)
	EncapSegmentInto(b, Segment{MsgID: 3, DeviceID: 1, Total: 256 << 20, Payload: make([]byte, 100-EncapOverhead)})
	if _, err := DecodeSegment(b); !errors.Is(err, ErrBadFragment) {
		t.Fatalf("DecodeSegment err = %v, want ErrBadFragment", err)
	}
	pool := bufpool.New()
	r := NewReassembler(0)
	r.SetPool(pool)
	m, err := r.Add(NewMAC(1), b)
	if m != nil || !errors.Is(err, ErrBadFragment) {
		t.Fatalf("Add = %v, %v; want ErrBadFragment", m, err)
	}
	if r.Pending() != 0 || pool.Stats.Gets != 0 {
		t.Errorf("rejected fragment acquired state: pending %d, pool gets %d", r.Pending(), pool.Stats.Gets)
	}
}

// reassemble64K is the §4.4 steady state: one 64 KiB message in nine
// MTU-8100 fragments, reassembled into pooled buffers that the consumer
// returns.
func reassemble64K(tb testing.TB) (run func()) {
	data := make([]byte, MaxMessage)
	for i := range data {
		data[i] = byte(i)
	}
	frames, _ := SegmentMessage(1, 1, data, 8100)
	if len(frames) != 9 {
		tb.Fatalf("%d fragments, want 9", len(frames))
	}
	pool := bufpool.New()
	r := NewReassembler(0)
	r.SetPool(pool)
	src := NewMAC(1)
	return func() {
		for _, fr := range frames {
			m, err := r.Add(src, fr)
			if err != nil {
				tb.Fatal(err)
			}
			if m != nil {
				pool.PutRaw(m.Data)
			}
		}
	}
}

func TestReassembleZeroAlloc(t *testing.T) {
	run := reassemble64K(t)
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Errorf("pooled 64 KiB reassembly: %v allocs/op, want 0", allocs)
	}
}

func BenchmarkReassemble64K(b *testing.B) {
	run := reassemble64K(b)
	run()
	b.SetBytes(MaxMessage)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
