package virtio

import (
	"bytes"
	"testing"
)

// FuzzBlkHdr: DecodeBlkHdr parses bytes straight off the wire (the IOhost's
// handleBlkReq) or out of a guest chain (the elvis and baseline hosts), so
// it must never panic. What it accepts must re-encode to the input — less
// the reserved bytes 4..8, which it drops — followed by the body it
// returned, and every header must survive Encode then Decode.
func FuzzBlkHdr(f *testing.F) {
	f.Add([]byte{}, uint32(0), uint64(0))
	f.Add(BlkHdr{Type: BlkIn, Sector: 64}.Encode([]byte{8, 0, 0, 0}), uint32(BlkOut), uint64(1<<40))
	f.Add(bytes.Repeat([]byte{0xff}, BlkHdrSize-1), uint32(BlkVolIn), ^uint64(0))
	f.Fuzz(func(t *testing.T, raw []byte, typ uint32, sector uint64) {
		h, body, err := DecodeBlkHdr(raw)
		if err != nil {
			if len(raw) >= BlkHdrSize {
				t.Fatalf("rejected a %d-byte buffer: %v", len(raw), err)
			}
		} else {
			want := append([]byte(nil), raw...)
			clear(want[4:8])
			if got := append(h.Encode(nil), body...); !bytes.Equal(got, want) {
				t.Fatalf("decode %x then encode gave %x", raw, got)
			}
		}

		in := BlkHdr{Type: typ, Sector: sector}
		enc := in.Encode(nil)
		out, rest, err := DecodeBlkHdr(enc)
		if err != nil || out != in || len(rest) != 0 || len(enc) != BlkHdrSize {
			t.Fatalf("round trip of %+v: got %+v, %d left over, err %v", in, out, len(rest), err)
		}
	})
}

// FuzzVolHdr is FuzzBlkHdr for the volume header that follows BlkHdr on
// BlkVolOut/BlkVolIn requests; it has no reserved bytes, so what
// DecodeVolHdr accepts re-encodes to exactly the input.
func FuzzVolHdr(f *testing.F) {
	f.Add([]byte{}, uint64(0), uint64(0))
	f.Add(VolHdr{Extent: 3, Version: 9}.Encode([]byte{4, 0, 0, 0}), uint64(1), ^uint64(0))
	f.Add(bytes.Repeat([]byte{0xff}, VolHdrSize-1), ^uint64(0), uint64(1))
	f.Fuzz(func(t *testing.T, raw []byte, extent, version uint64) {
		h, body, err := DecodeVolHdr(raw)
		if err != nil {
			if len(raw) >= VolHdrSize {
				t.Fatalf("rejected a %d-byte buffer: %v", len(raw), err)
			}
		} else if got := append(h.Encode(nil), body...); !bytes.Equal(got, raw) {
			t.Fatalf("decode %x then encode gave %x", raw, got)
		}

		in := VolHdr{Extent: extent, Version: version}
		enc := in.Encode(nil)
		out, rest, err := DecodeVolHdr(enc)
		if err != nil || out != in || len(rest) != 0 || len(enc) != VolHdrSize {
			t.Fatalf("round trip of %+v: got %+v, %d left over, err %v", in, out, len(rest), err)
		}
	})
}
