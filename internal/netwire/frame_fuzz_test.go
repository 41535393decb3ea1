package netwire_test

import (
	"bytes"
	"errors"
	"testing"

	"vrio/internal/ethernet"
	"vrio/internal/netwire"
)

// FuzzDecodeFrame feeds DecodeFrame arbitrary bytes, the remote input every
// carrier unseals first. It must never panic; a frame it accepts must carry
// a known Kind and a payload that aliases b[PreambleSize:]; and sealing the
// decoded preamble over that payload must give back b byte for byte. Random
// bytes almost never pass the checksum, so each input is checked a second
// time with its checksum recomputed: the fuzzer then reaches the kind check
// and the accept path with arbitrary kinds, MACs and payloads.
func FuzzDecodeFrame(f *testing.F) {
	src, dst := ethernet.NewMAC(1), ethernet.NewMAC(2)
	seal := func(kind netwire.Kind, payload []byte) []byte {
		b := make([]byte, netwire.PreambleSize+len(payload))
		copy(b[netwire.PreambleSize:], payload)
		netwire.SealFrame(b, kind, src, dst)
		return b
	}
	f.Add(seal(netwire.KindData, []byte("the quick brown fox")))
	f.Add(seal(netwire.KindHello, nil))
	f.Add(seal(netwire.KindHelloAck, nil))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		checkDecode(t, b)
		if len(b) >= netwire.PreambleSize {
			sealed := append([]byte(nil), b...)
			reseal(sealed)
			if err := checkDecode(t, sealed); errors.Is(err, netwire.ErrChecksum) {
				t.Fatalf("resealed frame %x failed its checksum", sealed)
			}
		}
	})
}

// checkDecode decodes b and, when DecodeFrame accepts it, checks the
// accepted frame's properties. It returns DecodeFrame's error.
func checkDecode(t *testing.T, b []byte) error {
	t.Helper()
	p, payload, err := netwire.DecodeFrame(b)
	if err != nil {
		return err
	}
	if p.Kind < netwire.KindData || p.Kind > netwire.KindHelloAck {
		t.Fatalf("accepted frame %x with kind %d", b, p.Kind)
	}
	want := b[netwire.PreambleSize:]
	if len(payload) != len(want) || cap(payload) != cap(want) ||
		(cap(want) > 0 && &payload[:1][0] != &want[:1][0]) {
		t.Fatalf("payload of %x does not alias b[PreambleSize:]", b)
	}
	out := make([]byte, len(b))
	copy(out[netwire.PreambleSize:], payload)
	netwire.SealFrame(out, p.Kind, p.Src, p.Dst)
	if !bytes.Equal(out, b) {
		t.Fatalf("decode of %x then seal gave %x", b, out)
	}
	return nil
}
