package ethernet

import (
	"bytes"
	"testing"
	"testing/quick"

	"vrio/internal/bufpool"
)

func TestMACString(t *testing.T) {
	m := MAC{0x02, 0x10, 0xde, 0xad, 0xbe, 0xef}
	if got := m.String(); got != "02:10:de:ad:be:ef" {
		t.Errorf("String = %q", got)
	}
}

func TestNewMACDistinctAndUnicast(t *testing.T) {
	a := NewMAC(1)
	b := NewMAC(2)
	if a == b {
		t.Error("distinct nodes got the same MAC")
	}
	if a[0]&0x01 != 0 {
		t.Error("generated MAC is multicast")
	}
	if a[0]&0x02 == 0 {
		t.Error("generated MAC is not locally administered")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	f := func(dst, src [6]byte, et uint16, payload []byte) bool {
		fr := Frame{Dst: MAC(dst), Src: MAC(src), EtherType: et, Payload: payload}
		enc, err := fr.Encode(0)
		if err != nil {
			return false
		}
		dec, err := Decode(enc)
		if err != nil {
			return false
		}
		return dec.Dst == fr.Dst && dec.Src == fr.Src && dec.EtherType == et &&
			bytes.Equal(dec.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// EncodePooled produces the same bytes as Encode, in a recyclable slab, and
// reads the payload only during the call.
func TestFrameEncodePooledMatchesEncode(t *testing.T) {
	pool := bufpool.New()
	f := func(dst, src [6]byte, et uint16, payload []byte) bool {
		fr := Frame{Dst: MAC(dst), Src: MAC(src), EtherType: et, Payload: payload}
		want, err := fr.Encode(0)
		if err != nil {
			return false
		}
		got := fr.EncodePooled(pool)
		clear(payload) // the slab must not alias the borrowed payload
		ok := bytes.Equal(got, want)
		return pool.PutRaw(got) && ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if pool.Stats.Misses == pool.Stats.Gets {
		t.Error("recycled slabs were never reused")
	}
}

func TestFrameEncodeMTUEnforced(t *testing.T) {
	fr := Frame{Payload: make([]byte, 1501)}
	if _, err := fr.Encode(1500); err == nil {
		t.Error("oversize payload accepted")
	}
	if _, err := fr.Encode(1501); err != nil {
		t.Errorf("exact-MTU payload rejected: %v", err)
	}
}

func TestDecodeShortFrame(t *testing.T) {
	if _, err := Decode(make([]byte, HeaderSize-1)); err != ErrShortFrame {
		t.Errorf("err = %v, want ErrShortFrame", err)
	}
}

func TestWireSize(t *testing.T) {
	fr := Frame{Payload: make([]byte, 100)}
	if got := fr.WireSize(); got != 14+100+24 {
		t.Errorf("WireSize = %d", got)
	}
}
