package workload

import (
	"testing"
	"testing/quick"

	"vrio/internal/sim"
)

func TestResultsMeasurementWindowGating(t *testing.T) {
	var r Results
	r.record(100, 10, false)
	if r.Ops != 0 {
		t.Error("recorded outside the measurement window")
	}
	r.StartMeasuring()
	r.record(100, 10, false)
	r.record(200, 20, false)
	r.record(0, 0, true)
	r.StopMeasuring()
	r.record(300, 30, false)
	if r.Ops != 2 || r.Bytes != 30 || r.Errors != 1 {
		t.Errorf("ops=%d bytes=%d errors=%d", r.Ops, r.Bytes, r.Errors)
	}
	if r.Latency.Count() != 2 {
		t.Errorf("latency samples = %d", r.Latency.Count())
	}
}

func TestResultsRates(t *testing.T) {
	var r Results
	r.StartMeasuring()
	for i := 0; i < 10; i++ {
		r.record(1000, 125, false)
	}
	window := 1 * sim.Millisecond
	if got := r.OpsPerSec(window); got != 10_000 {
		t.Errorf("OpsPerSec = %v", got)
	}
	// 1250 bytes in 1ms = 10 Mbps.
	if got := r.Throughput(window); got != 10e6 {
		t.Errorf("Throughput = %v", got)
	}
	if r.Throughput(0) != 0 || r.OpsPerSec(0) != 0 {
		t.Error("zero window should report 0")
	}
}

func TestSeqPayloadRoundTrip(t *testing.T) {
	// One buffer across every call, as a workload reuses it: the header is
	// rewritten and the padding stays zero.
	var buf []byte
	f := func(seq uint64, now int64, pad uint8) bool {
		size := 16 + int(pad)
		b := seqPayload(&buf, seq, sim.Time(now), size)
		if len(b) != size {
			return false
		}
		for _, c := range b[16:] {
			if c != 0 {
				return false
			}
		}
		gotSeq, gotNow, ok := parseSeqPayload(b)
		return ok && gotSeq == seq && gotNow == sim.Time(now)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSeqPayloadMinimumSize(t *testing.T) {
	var buf []byte
	b := seqPayload(&buf, 1, 2, 3)
	if len(b) != 16 {
		t.Errorf("undersized request not padded: %d", len(b))
	}
	if _, _, ok := parseSeqPayload(b[:15]); ok {
		t.Error("short payload parsed")
	}
}

func TestMacroConfigs(t *testing.T) {
	a := ApacheConfig()
	if a.Concurrency < 1 || a.RespSize <= a.ReqSize {
		t.Errorf("apache config implausible: %+v", a)
	}
	m := MemcachedConfig()
	if m.Concurrency < a.Concurrency {
		t.Error("memslap should be at least as concurrent as apachebench")
	}
}

func TestFilebenchConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("incomplete filebench config accepted")
		}
	}()
	NewFilebench(sim.NewEngine(), nil, nil, FilebenchConfig{})
}

func TestWebserverConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("incomplete webserver config accepted")
		}
	}()
	NewWebserver(sim.NewEngine(), nil, nil, WebserverConfig{})
}

// fakeBlock satisfies BlockIO without any simulation machinery.
type fakeBlock struct{}

func (fakeBlock) WriteBlock(sector uint64, data []byte, done func(error)) { done(nil) }
func (fakeBlock) ReadBlock(sector uint64, sectors int, done func([]byte, error)) {
	done(make([]byte, sectors*512), nil)
}
func (fakeBlock) BlockCPUCost(int) sim.Time { return 0 }

func TestWebserverLayoutInvariants(t *testing.T) {
	eng := sim.NewEngine()
	const capacity = (1 << 30) / 512
	w := NewWebserver(eng, nil, fakeBlock{}, WebserverConfig{
		Threads: 1, Files: 30000, MeanFileSize: 28 * 1024, ChunkSize: 4096,
		OpCost: 1000, OpenCost: 1000, LogWrite: 512,
		CapacitySectors: capacity, SectorSize: 512, Seed: 9,
	})
	if w.FileCount() == 0 {
		t.Fatal("no files laid out")
	}
	if w.FileCount() > 30000 {
		t.Fatalf("laid out %d files", w.FileCount())
	}
	// Non-overlap and capacity: every file's span must fit before the log.
	var mean float64
	for i := 0; i < w.FileCount(); i++ {
		mean += float64(w.fileSize[i])
		chunks := uint64((w.fileSize[i] + 4095) / 4096)
		end := w.fileSectors[i] + chunks*8
		if end > w.logSector {
			t.Fatalf("file %d overlaps the log region", i)
		}
		if i > 0 && w.fileSectors[i] < w.fileSectors[i-1] {
			t.Fatalf("files not laid out in order")
		}
	}
	mean /= float64(w.FileCount())
	if mean < 20*1024 || mean > 36*1024 {
		t.Errorf("mean file size = %.0f, want ≈28KB", mean)
	}
}
