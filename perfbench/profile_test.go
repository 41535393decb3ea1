package main

import (
	"bytes"
	"crypto/sha256"
	"runtime/pprof"
	"testing"
	"time"
)

func TestModuleOfInnermostInternalFrame(t *testing.T) {
	cases := []struct {
		stack []string // innermost first
		want  string
	}{
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "vrio/internal/ethernet.(*Reassembler).Add",
			"vrio/internal/nic.(*VF).rx", "vrio/internal/sim.(*Engine).Run"}, "ethernet"},
		{[]string{"vrio/internal/sim.(*RNG).LogNormal", "vrio/internal/link.(*Wire).Send.func1"}, "sim"},
		{[]string{"crypto/sha256.block", "main.(*requester).verify", "vrio/internal/transport.(*Driver).Deliver"}, moduleBench},
		{[]string{"crypto/sha256.block", "vrio/perfbench.(*server).echo"}, moduleBench},
		{[]string{"syscall.Syscall6", "net.(*UDPConn).WriteToUDPAddrPort", "vrio/internal/netwire.(*UDPCarrier).xmit"}, "netwire"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, moduleRuntime},
		{nil, moduleRuntime},
	}
	for _, c := range cases {
		if got := moduleOf(c.stack); got != c.want {
			t.Errorf("moduleOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

var burnSink [sha256.Size]byte

func burn(d time.Duration) {
	buf := make([]byte, 4096)
	for end := time.Now().Add(d); time.Now().Before(end); {
		burnSink = sha256.Sum256(buf)
		buf[0]++
	}
}

func TestCPUByModuleDecodesRuntimeProfile(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	burn(400 * time.Millisecond)
	pprof.StopCPUProfile()
	cpu, err := cpuByModule(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, s := range cpu {
		total += s
	}
	if total < 0.1 {
		t.Fatalf("profile holds %.3f CPU seconds, want most of 0.4: %v", total, cpu)
	}
	if cpu[moduleBench] < total/2 {
		t.Errorf("bench charged %.3f of %.3f s; the burn loop is the test's own code: %v", cpu[moduleBench], total, cpu)
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := cpuByModule([]byte("not a profile")); err == nil {
		t.Error("garbage parsed without error")
	}
}
