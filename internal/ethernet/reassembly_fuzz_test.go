package ethernet

import (
	"bytes"
	"fmt"
	"testing"

	"vrio/internal/bufpool"
)

// oracleReassembler is the reference the bitmap Reassembler is checked
// against: the same contract written the obvious way, with one bool per
// message byte, a fresh buffer per message and no recycling.
type oracleReassembler struct {
	partial    map[reassemblyKey]*oraclePartial
	maxPartial int
	evictions  uint64
	seq        uint64
}

type oraclePartial struct {
	buf      []byte
	have     []bool
	covered  uint32
	total    uint32
	deviceID uint16
	pages    int
	frags    int
	seq      uint64
}

func newOracleReassembler(maxPartial int) *oracleReassembler {
	return &oracleReassembler{partial: make(map[reassemblyKey]*oraclePartial), maxPartial: maxPartial}
}

func (r *oracleReassembler) Add(src MAC, raw []byte) (*Message, error) {
	seg, err := DecodeSegment(raw)
	if err != nil {
		return nil, err
	}
	key := reassemblyKey{src, seg.MsgID}
	p := r.partial[key]
	if p == nil {
		if len(r.partial) >= r.maxPartial {
			var oldestKey reassemblyKey
			var oldest *oraclePartial
			for k, q := range r.partial {
				if oldest == nil || q.seq < oldest.seq {
					oldest, oldestKey = q, k
				}
			}
			delete(r.partial, oldestKey)
			r.evictions++
		}
		p = &oraclePartial{
			buf:      make([]byte, seg.Total),
			have:     make([]bool, seg.Total),
			total:    seg.Total,
			deviceID: seg.DeviceID,
			seq:      r.seq,
		}
		r.seq++
		r.partial[key] = p
	}
	if p.total != seg.Total || p.deviceID != seg.DeviceID {
		return nil, fmt.Errorf("%w (msg %d)", ErrDeviceMismatch, seg.MsgID)
	}
	newBytes := uint32(0)
	for i := range seg.Payload {
		if idx := int(seg.Offset) + i; !p.have[idx] {
			p.have[idx] = true
			newBytes++
		}
	}
	if newBytes > 0 {
		copy(p.buf[seg.Offset:], seg.Payload)
		p.covered += newBytes
		p.frags++
		p.pages += FragmentPages(len(raw))
	}
	if p.covered < p.total && !(p.total == 0 && seg.Last) {
		return nil, nil
	}
	delete(r.partial, key)
	return &Message{
		Src:       src,
		MsgID:     seg.MsgID,
		DeviceID:  p.deviceID,
		Data:      p.buf,
		ZeroCopy:  p.pages <= MaxZeroCopyPages,
		Fragments: p.frags,
	}, nil
}

// fuzzScript hands out the fuzzer's control bytes, then zeros.
type fuzzScript []byte

func (s *fuzzScript) byte() byte {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return b
}

func (s *fuzzScript) u16() uint16 { return uint16(s.byte())<<8 | uint16(s.byte()) }

func fuzzMTU(v uint16) int { return MinMTU + int(v)%(MaxMTU-MinMTU+1) }

// FuzzReassemble is a differential check of Reassembler against the per-byte
// oracle. A message of the given size is segmented at two MTUs, and the
// script replays fragments of either stream in any order (shuffles, exact
// duplicates, partial overlaps), re-stamped with another message id, source,
// Total or device id, or replaced by hostile segments with arbitrary offsets
// and totals and by raw garbage. After every step both sides must agree on
// completion, the error, the message and the pending/eviction counts. The
// message bytes are a fixed pattern rather than a fuzz input, so the fuzzer
// spends its time on the script instead of minimizing 64 KiB inputs.
func FuzzReassemble(f *testing.F) {
	data := make([]byte, MaxMessage)
	for i := range data {
		data[i] = byte(i*7 + i>>8)
	}
	// Seeds: a 64 KiB message at each paper MTU in order with an
	// overlapping MTU-4000 stream interleaved, and reversed with an
	// MTU-1500 stream.
	for _, mtu := range []int{1500, 8100, 9000} {
		frames, _ := SegmentMessage(1, 7, data, mtu)
		var interleaved, reversed []byte
		for i := range frames {
			interleaved = append(interleaved, 0, byte(i), 1, byte(i))
			reversed = append(reversed, 0, byte(len(frames)-1-i), 1, byte(2*i))
		}
		f.Add(uint32(MaxMessage), uint16(mtu-MinMTU), uint16(4000-MinMTU), interleaved)
		f.Add(uint32(MaxMessage), uint16(mtu-MinMTU), uint16(1500-MinMTU), reversed)
	}
	f.Add(uint32(0), uint16(1500-MinMTU), uint16(9000-MinMTU), []byte{0, 0, 0, 0, 3, 0, 5, 0, 0, 1, 7, 0})
	f.Add(uint32(3000), uint16(0), uint16(100), []byte{4, 1, 2, 1, 5, 0x80, 0, 0, 200, 6, 1, 1, 0, 7, 0x45})

	f.Fuzz(func(t *testing.T, size uint32, mtuA, mtuB uint16, script []byte) {
		msg := data[:min(size, MaxMessage)]
		if len(script) > 512 {
			script = script[:512]
		}
		streams := [2][][]byte{}
		for i, mtu := range []uint16{mtuA, mtuB} {
			frames, err := SegmentMessage(1, 7, msg, fuzzMTU(mtu))
			if err != nil {
				t.Fatal(err)
			}
			streams[i] = frames
		}
		pool := bufpool.New()
		got := NewReassembler(3)
		got.SetPool(pool)
		want := newOracleReassembler(3)

		s := fuzzScript(script)
		for step := 0; len(s) > 0; step++ {
			op, arg := s.byte(), s.byte()
			src := NewMAC(1)
			frames := streams[op&1]
			raw := frames[int(arg)%len(frames)]
			switch (op >> 1) % 6 {
			case 0: // a fragment of either stream as is
			case 1: // the same fragment under another message id or source
				src = NewMAC(uint32(s.byte() % 2))
				raw = restamp(raw, func(seg *Segment) { seg.MsgID += uint32(s.byte() % 3) })
			case 2: // a Total that disagrees with the message's
				raw = restamp(raw, func(seg *Segment) { seg.Total += uint32(s.u16()) })
			case 3: // a device id that disagrees with the message's
				raw = restamp(raw, func(seg *Segment) { seg.DeviceID ^= uint16(s.byte()) | 1 })
			case 4: // a hostile segment: arbitrary offset, total and length
				seg := Segment{
					MsgID:    1 + uint32(s.byte()%2),
					DeviceID: 7,
					Offset:   uint32(s.u16()) << (s.byte() % 4),
					Total:    uint32(s.u16()) << (s.byte() % 5),
					Last:     s.byte()&1 == 1,
				}
				n := min(int(s.u16())%9000, len(msg))
				seg.Payload = msg[:n]
				raw = make([]byte, EncapOverhead+n)
				EncapSegmentInto(raw, seg)
			case 5: // raw garbage
				raw = append([]byte(nil), s...)[:min(len(s), int(arg))]
			}

			gm, gerr := got.Add(src, raw)
			wm, werr := want.Add(src, raw)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("step %d: err %v, oracle %v", step, gerr, werr)
			}
			if (gm == nil) != (wm == nil) {
				t.Fatalf("step %d: completed %v, oracle %v", step, gm != nil, wm != nil)
			}
			if gm != nil {
				if gm.Src != wm.Src || gm.MsgID != wm.MsgID || gm.DeviceID != wm.DeviceID ||
					gm.ZeroCopy != wm.ZeroCopy || gm.Fragments != wm.Fragments {
					t.Fatalf("step %d: message %+v, oracle %+v", step,
						Message{gm.Src, gm.MsgID, gm.DeviceID, nil, gm.ZeroCopy, gm.Fragments},
						Message{wm.Src, wm.MsgID, wm.DeviceID, nil, wm.ZeroCopy, wm.Fragments})
				}
				if !bytes.Equal(gm.Data, wm.Data) {
					t.Fatalf("step %d: data differs from oracle", step)
				}
				pool.PutRaw(gm.Data)
			}
			if got.Pending() != len(want.partial) || got.Evictions() != want.evictions {
				t.Fatalf("step %d: pending %d evictions %d, oracle %d %d", step,
					got.Pending(), got.Evictions(), len(want.partial), want.evictions)
			}
		}
	})
}

// restamp re-encodes a fragment after edit changes its header fields.
func restamp(raw []byte, edit func(*Segment)) []byte {
	seg, err := DecodeSegment(raw)
	if err != nil {
		panic(err)
	}
	edit(&seg)
	out := make([]byte, len(raw))
	EncapSegmentInto(out, seg)
	return out
}
