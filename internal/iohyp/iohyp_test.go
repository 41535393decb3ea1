package iohyp

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"vrio/internal/blockdev"
	"vrio/internal/cpu"
	"vrio/internal/ethernet"
	"vrio/internal/interpose"
	"vrio/internal/link"
	"vrio/internal/nic"
	"vrio/internal/params"
	"vrio/internal/sim"
	"vrio/internal/transport"
	"vrio/internal/virtio"
)

// rig is a minimal IOhost + one IOclient + one external node.
type rig struct {
	eng *sim.Engine
	p   params.P
	hyp *IOHypervisor

	clientMAC  ethernet.MAC
	clientPort *nic.MessagePort
	driver     *transport.Driver

	extVF  *nic.VF // the external party's NIC
	extMAC ethernet.MAC
}

func newRig(t *testing.T, sidecores int, mode Mode) *rig {
	t.Helper()
	r := &rig{eng: sim.NewEngine(), p: params.Default()}
	r.clientMAC = ethernet.NewMAC(1)
	r.extMAC = ethernet.NewMAC(200)

	// Channel cable: client <-> IOhost.
	chCable := link.NewDuplex(r.eng, r.p.LinkBandwidth40G, r.p.WireLatency)
	nicCfg := nic.Config{ProcessCost: r.p.NICProcessCost, CoalesceDelay: r.p.IRQCoalesceDelay, RxRingSize: r.p.RxRingSize}
	clientNIC := nic.New(r.eng, "client", nicCfg, chCable.AtoB)
	iohostChNIC := nic.New(r.eng, "iohost-ch", nicCfg, chCable.BtoA)
	chCable.AtoB.SetReceiver(iohostChNIC)
	chCable.BtoA.SetReceiver(clientNIC)

	clientVF := clientNIC.AddVF(r.clientMAC, nic.ModePoll)
	iohostVF := iohostChNIC.AddVF(ethernet.NewMAC(100), nic.ModePoll)

	// Uplink cable: external node <-> IOhost.
	upCable := link.NewDuplex(r.eng, r.p.LinkBandwidth10G, r.p.WireLatency)
	extNIC := nic.New(r.eng, "ext", nicCfg, upCable.AtoB)
	iohostUpNIC := nic.New(r.eng, "iohost-up", nicCfg, upCable.BtoA)
	upCable.AtoB.SetReceiver(iohostUpNIC)
	upCable.BtoA.SetReceiver(extNIC)
	r.extVF = extNIC.AddVF(r.extMAC, nic.ModePoll)
	uplinkVF := iohostUpNIC.AddVF(ethernet.NewMAC(101), nic.ModePoll)
	// The uplink terminates traffic for every F MAC behind the IOhost.
	iohostUpNIC.Promiscuous = uplinkVF

	// IOhost.
	var cores []*cpu.Core
	for i := 0; i < sidecores; i++ {
		cores = append(cores, cpu.New(r.eng, "side", r.p.ContextSwitchCost))
	}
	r.hyp = New(r.eng, Config{Params: &r.p, Mode: mode, Sidecores: cores, Seed: 1})
	port := r.hyp.AttachChannelNIC(iohostVF)
	r.hyp.AttachUplink(uplinkVF)
	r.hyp.BindClient(r.clientMAC, port)

	// Client transport driver; frames are handled as soon as they land
	// (the client's own costs are out of scope here).
	r.clientPort = nic.NewMessagePort(clientVF, r.p.MTU)
	r.driver = transport.NewDriver(r.eng, r.clientPort, ethernet.NewMAC(100), transport.Config{})
	r.clientPort.OnMessage = func(src ethernet.MAC, msg []byte, _ bool, _ int) {
		if err := r.driver.Deliver(msg); err != nil {
			t.Errorf("client driver: %v", err)
		}
	}
	clientVF.NotifyRx = func() {
		r.eng.After(1, func() { r.clientPort.HandleBatch(clientVF.Poll(0)) })
	}
	return r
}

func TestBlockWriteReadThroughIOhost(t *testing.T) {
	r := newRig(t, 2, ModePolling)
	store := blockdev.NewStore(r.p.SectorSize, 10000)
	dev := blockdev.NewDevice(r.eng, store, r.p.RamdiskLatency, 4)
	r.hyp.RegisterBlkDevice(r.clientMAC, 1, dev, nil)

	// Write 4 KiB.
	payload := bytes.Repeat([]byte{0xCD}, 4096)
	req := virtio.BlkHdr{Type: virtio.BlkOut, Sector: 64}.Encode(nil)
	req = append(req, payload...)
	wrote := false
	r.driver.SendBlk(uint8(virtio.DeviceBlk), 1, req, func(resp []byte, err error) {
		if err != nil || len(resp) != 1 || resp[0] != virtio.BlkOK {
			t.Errorf("write resp=%v err=%v", resp, err)
		}
		wrote = true
	})
	r.eng.Run()
	if !wrote {
		t.Fatal("write never completed")
	}
	got, err := store.Read(64, 4096/r.p.SectorSize)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatal("store does not contain written data")
	}

	// Read it back through the stack.
	rd := virtio.BlkHdr{Type: virtio.BlkIn, Sector: 64}.Encode(nil)
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(4096/r.p.SectorSize))
	rd = append(rd, n[:]...)
	var readBack []byte
	r.driver.SendBlk(uint8(virtio.DeviceBlk), 1, rd, func(resp []byte, err error) {
		if err != nil || len(resp) < 1 || resp[0] != virtio.BlkOK {
			t.Errorf("read resp err=%v", err)
			return
		}
		readBack = resp[1:]
	})
	r.eng.Run()
	if !bytes.Equal(readBack, payload) {
		t.Errorf("read-back %d bytes, mismatch", len(readBack))
	}
	if r.hyp.Counters.Get("blk_reqs") != 2 {
		t.Errorf("blk_reqs = %d", r.hyp.Counters.Get("blk_reqs"))
	}
}

func TestBlockAESInterposition(t *testing.T) {
	r := newRig(t, 1, ModePolling)
	store := blockdev.NewStore(r.p.SectorSize, 1000)
	dev := blockdev.NewDevice(r.eng, store, r.p.RamdiskLatency, 1)
	aes, err := interpose.NewAES(bytes.Repeat([]byte{9}, 32), r.p.AESPerByteCost)
	if err != nil {
		t.Fatal(err)
	}
	r.hyp.RegisterBlkDevice(r.clientMAC, 1, dev, interpose.NewChain(aes))

	plain := bytes.Repeat([]byte{0x11}, 512)
	req := virtio.BlkHdr{Type: virtio.BlkOut, Sector: 0}.Encode(nil)
	req = append(req, plain...)
	r.driver.SendBlk(uint8(virtio.DeviceBlk), 1, req, func(resp []byte, err error) {
		if err != nil {
			t.Errorf("write: %v", err)
		}
	})
	r.eng.Run()

	// At rest, the store holds ciphertext.
	atRest, _ := store.Read(0, 1)
	if bytes.Equal(atRest, plain) {
		t.Error("data at rest is not encrypted")
	}

	// Reading through the chain decrypts.
	rd := virtio.BlkHdr{Type: virtio.BlkIn, Sector: 0}.Encode(nil)
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], 1)
	rd = append(rd, n[:]...)
	var back []byte
	r.driver.SendBlk(uint8(virtio.DeviceBlk), 1, rd, func(resp []byte, err error) {
		if err == nil && len(resp) > 0 && resp[0] == virtio.BlkOK {
			back = resp[1:]
		}
	})
	r.eng.Run()
	if !bytes.Equal(back, plain) {
		t.Error("read through AES chain did not decrypt")
	}
}

func TestNetTxForwardsToUplinkWithFMAC(t *testing.T) {
	r := newRig(t, 1, ModePolling)
	fMAC := ethernet.NewMAC(50)
	r.hyp.RegisterNetDevice(r.clientMAC, 2, fMAC, nil)

	inner := ethernet.Frame{Dst: r.extMAC, Src: fMAC, EtherType: ethernet.EtherTypePlain, Payload: []byte("to the world")}
	raw, _ := inner.Encode(0)
	r.driver.SendNet(uint8(virtio.DeviceNet), 2, raw)
	r.eng.Run()

	frames := r.extVF.Poll(0)
	if len(frames) != 1 {
		t.Fatalf("external node got %d frames", len(frames))
	}
	f, _ := ethernet.Decode(frames[0])
	if string(f.Payload) != "to the world" {
		t.Errorf("payload = %q", f.Payload)
	}
	if f.Src != fMAC {
		t.Errorf("source = %v, want F MAC %v", f.Src, fMAC)
	}
	if r.hyp.Counters.Get("net_fwd_uplink") != 1 {
		t.Errorf("net_fwd_uplink = %d", r.hyp.Counters.Get("net_fwd_uplink"))
	}
}

func TestExternalFrameDeliveredToClient(t *testing.T) {
	r := newRig(t, 1, ModePolling)
	fMAC := ethernet.NewMAC(50)
	r.hyp.RegisterNetDevice(r.clientMAC, 2, fMAC, nil)

	var gotDev uint16
	var gotFrame []byte
	r.driver.NetRx = func(deviceID uint16, frame []byte) {
		gotDev = deviceID
		gotFrame = frame
	}
	r.extVF.SendFrame(ethernet.Frame{Dst: fMAC, EtherType: ethernet.EtherTypePlain, Payload: []byte("inbound")})
	r.eng.Run()
	if gotDev != 2 {
		t.Fatalf("device = %d (frame len %d)", gotDev, len(gotFrame))
	}
	f, err := ethernet.Decode(gotFrame)
	if err != nil || string(f.Payload) != "inbound" {
		t.Errorf("frame payload = %q err=%v", f.Payload, err)
	}
	if r.hyp.Counters.Get("net_in") != 1 {
		t.Errorf("net_in = %d", r.hyp.Counters.Get("net_in"))
	}
}

func TestVMToVMLocalForwarding(t *testing.T) {
	r := newRig(t, 2, ModePolling)
	fA, fB := ethernet.NewMAC(50), ethernet.NewMAC(51)
	r.hyp.RegisterNetDevice(r.clientMAC, 1, fA, nil)
	r.hyp.RegisterNetDevice(r.clientMAC, 2, fB, nil)

	var gotDev uint16
	var payload string
	r.driver.NetRx = func(deviceID uint16, frame []byte) {
		gotDev = deviceID
		f, _ := ethernet.Decode(frame)
		payload = string(f.Payload)
	}
	inner := ethernet.Frame{Dst: fB, Src: fA, EtherType: ethernet.EtherTypePlain, Payload: []byte("vm2vm")}
	raw, _ := inner.Encode(0)
	r.driver.SendNet(uint8(virtio.DeviceNet), 1, raw)
	r.eng.Run()
	if gotDev != 2 || payload != "vm2vm" {
		t.Errorf("dev=%d payload=%q", gotDev, payload)
	}
	if r.hyp.Counters.Get("net_fwd_local") != 1 {
		t.Errorf("net_fwd_local = %d", r.hyp.Counters.Get("net_fwd_local"))
	}
}

func TestFirewallDropCounted(t *testing.T) {
	r := newRig(t, 1, ModePolling)
	fMAC := ethernet.NewMAC(50)
	fw := interpose.NewFirewall(100, []byte("DENY"))
	r.hyp.RegisterNetDevice(r.clientMAC, 2, fMAC, interpose.NewChain(fw))
	inner := ethernet.Frame{Dst: r.extMAC, Src: fMAC, EtherType: ethernet.EtherTypePlain, Payload: []byte("DENY this")}
	raw, _ := inner.Encode(0)
	r.driver.SendNet(uint8(virtio.DeviceNet), 2, raw)
	r.eng.Run()
	if got := len(r.extVF.Poll(0)); got != 0 {
		t.Errorf("dropped frame escaped: %d frames", got)
	}
	if r.hyp.Counters.Get("interpose_drops") != 1 {
		t.Errorf("interpose_drops = %d", r.hyp.Counters.Get("interpose_drops"))
	}
}

func TestPerDeviceOrderPreservedAcrossWorkers(t *testing.T) {
	r := newRig(t, 4, ModePolling)
	store := blockdev.NewStore(r.p.SectorSize, 10000)
	dev := blockdev.NewDevice(r.eng, store, 100, 8)
	r.hyp.RegisterBlkDevice(r.clientMAC, 1, blockdev.NewScheduler(dev, r.p.SectorSize), nil)

	// 32 sequential writes to the same sector: final content must be the
	// last one despite 4 workers.
	const writes = 32
	completed := 0
	for i := 0; i < writes; i++ {
		data := bytes.Repeat([]byte{byte(i + 1)}, 512)
		req := virtio.BlkHdr{Type: virtio.BlkOut, Sector: 7}.Encode(nil)
		req = append(req, data...)
		r.driver.SendBlk(uint8(virtio.DeviceBlk), 1, req, func(resp []byte, err error) {
			if err != nil {
				t.Errorf("write: %v", err)
			}
			completed++
		})
	}
	r.eng.Run()
	if completed != writes {
		t.Fatalf("completed %d/%d", completed, writes)
	}
	got, _ := store.Read(7, 1)
	if got[0] != writes {
		t.Errorf("final sector value = %d, want %d (order violated)", got[0], writes)
	}
}

func TestPollingModeHasNoIOhostInterrupts(t *testing.T) {
	r := newRig(t, 1, ModePolling)
	fMAC := ethernet.NewMAC(50)
	r.hyp.RegisterNetDevice(r.clientMAC, 2, fMAC, nil)
	inner := ethernet.Frame{Dst: r.extMAC, Src: fMAC, EtherType: ethernet.EtherTypePlain, Payload: []byte("x")}
	raw, _ := inner.Encode(0)
	for i := 0; i < 10; i++ {
		r.driver.SendNet(uint8(virtio.DeviceNet), 2, raw)
	}
	r.eng.Run()
	if irqs := r.hyp.Counters.Get("iohost_irqs"); irqs != 0 {
		t.Errorf("polling mode took %d IOhost interrupts", irqs)
	}
}

func TestInterruptModeCountsIOhostInterrupts(t *testing.T) {
	r := newRig(t, 1, ModeInterrupt)
	fMAC := ethernet.NewMAC(50)
	r.hyp.RegisterNetDevice(r.clientMAC, 2, fMAC, nil)
	inner := ethernet.Frame{Dst: r.extMAC, Src: fMAC, EtherType: ethernet.EtherTypePlain, Payload: []byte("x")}
	raw, _ := inner.Encode(0)
	r.driver.SendNet(uint8(virtio.DeviceNet), 2, raw)
	r.eng.Run()
	// At least rx + tx interrupts.
	if irqs := r.hyp.Counters.Get("iohost_irqs"); irqs < 2 {
		t.Errorf("iohost_irqs = %d, want >= 2", irqs)
	}
	if got := len(r.extVF.Poll(0)); got != 1 {
		t.Errorf("frame not forwarded in interrupt mode: %d", got)
	}
}

func TestUnknownBlockDeviceGetsUnsupp(t *testing.T) {
	r := newRig(t, 1, ModePolling)
	req := virtio.BlkHdr{Type: virtio.BlkOut, Sector: 0}.Encode(nil)
	req = append(req, make([]byte, 512)...)
	var status byte = 0xFF
	r.driver.SendBlk(uint8(virtio.DeviceBlk), 9, req, func(resp []byte, err error) {
		if err == nil && len(resp) == 1 {
			status = resp[0]
		}
	})
	r.eng.Run()
	if status != virtio.BlkUnsupp {
		t.Errorf("status = %d, want BlkUnsupp", status)
	}
}

func TestWorkersShareLoad(t *testing.T) {
	r := newRig(t, 4, ModePolling)
	store := blockdev.NewStore(r.p.SectorSize, 100000)
	dev := blockdev.NewDevice(r.eng, store, 100, 16)
	// Many independent devices so steering can spread.
	for id := uint16(1); id <= 8; id++ {
		r.hyp.RegisterBlkDevice(r.clientMAC, id, dev, nil)
	}
	done := 0
	for i := 0; i < 200; i++ {
		req := virtio.BlkHdr{Type: virtio.BlkOut, Sector: uint64(i * 8)}.Encode(nil)
		req = append(req, make([]byte, 512)...)
		r.driver.SendBlk(uint8(virtio.DeviceBlk), uint16(1+i%8), req, func(resp []byte, err error) {
			if err != nil {
				t.Errorf("req: %v", err)
			}
			done++
		})
	}
	r.eng.Run()
	if done != 200 {
		t.Fatalf("done = %d", done)
	}
	busyWorkers := 0
	for _, w := range r.hyp.Workers() {
		if w.Processed > 0 {
			busyWorkers++
		}
	}
	if busyWorkers < 2 {
		t.Errorf("only %d workers processed anything", busyWorkers)
	}
}

func TestNewRequiresSidecores(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New without sidecores did not panic")
		}
	}()
	p := params.Default()
	New(sim.NewEngine(), Config{Params: &p})
}

func TestCopiedEdgeBytes(t *testing.T) {
	// 44-byte header shift against 512 sectors: head = 512-44 = 468,
	// tail = (44 + len) % 512.
	if got := copiedEdgeBytes(4096, 512); got != 468+44 {
		t.Errorf("copiedEdgeBytes(4096) = %d, want %d", got, 468+44)
	}
	if got := copiedEdgeBytes(0, 512); got != 0 {
		t.Errorf("empty write copies %d", got)
	}
	if got := copiedEdgeBytes(600, 512); got != 600 {
		t.Errorf("sub-2-sector write should copy entirely, got %d", got)
	}
}

func TestAnnounceAddressesFloodsFMACs(t *testing.T) {
	r := newRig(t, 1, ModePolling)
	r.hyp.RegisterNetDevice(r.clientMAC, 2, ethernet.NewMAC(50), nil)
	r.hyp.RegisterNetDevice(r.clientMAC, 4, ethernet.NewMAC(51), nil)
	r.hyp.AnnounceAddresses()
	r.eng.Run()
	// The external node receives one broadcast per registered F address.
	frames := r.extVF.Poll(0)
	if len(frames) != 2 {
		t.Fatalf("external node saw %d announcements, want 2", len(frames))
	}
	srcs := map[ethernet.MAC]bool{}
	for _, raw := range frames {
		f, err := ethernet.Decode(raw)
		if err != nil || f.Dst != ethernet.Broadcast {
			t.Fatalf("announcement malformed: %v %v", f, err)
		}
		srcs[f.Src] = true
	}
	if !srcs[ethernet.NewMAC(50)] || !srcs[ethernet.NewMAC(51)] {
		t.Errorf("announcement sources wrong: %v", srcs)
	}
	if r.hyp.Counters.Get("announcements") != 2 {
		t.Errorf("announcements counter = %d", r.hyp.Counters.Get("announcements"))
	}
}

func TestFailedIOhostServesNothing(t *testing.T) {
	r := newRig(t, 1, ModePolling)
	fMAC := ethernet.NewMAC(50)
	r.hyp.RegisterNetDevice(r.clientMAC, 2, fMAC, nil)
	r.hyp.Fail()
	inner := ethernet.Frame{Dst: r.extMAC, Src: fMAC, EtherType: ethernet.EtherTypePlain, Payload: []byte("dead")}
	raw, _ := inner.Encode(0)
	r.driver.SendNet(uint8(virtio.DeviceNet), 2, raw)
	r.extVF.SendFrame(ethernet.Frame{Dst: fMAC, EtherType: ethernet.EtherTypePlain, Payload: []byte("in")})
	r.eng.Run()
	if got := len(r.extVF.Poll(0)); got != 0 {
		t.Errorf("crashed IOhost forwarded %d frames", got)
	}
	if !r.hyp.Failed() {
		t.Error("Failed() = false")
	}
	// Announcements from a dead host must not go out either.
	r.hyp.AnnounceAddresses()
	r.eng.Run()
	if got := len(r.extVF.Poll(0)); got != 0 {
		t.Errorf("crashed IOhost announced %d frames", got)
	}
}

// TestStallWorkersDefersService: during an injected stall every sidecore is
// pinned, so a request sent mid-stall is not served until the stall window
// ends; service resumes afterwards with no traffic lost.
func TestStallWorkersDefersService(t *testing.T) {
	r := newRig(t, 2, ModePolling)
	fMAC := ethernet.NewMAC(50)
	r.hyp.RegisterNetDevice(r.clientMAC, 2, fMAC, nil)
	inner := ethernet.Frame{Dst: r.extMAC, Src: fMAC, EtherType: ethernet.EtherTypePlain, Payload: []byte("after the stall")}
	raw, _ := inner.Encode(0)

	const stall = 2 * sim.Millisecond
	r.eng.At(0, func() {
		r.hyp.StallWorkers(stall)
		if !r.hyp.Stalled() {
			t.Error("Stalled() false immediately after StallWorkers")
		}
	})
	r.eng.At(10, func() { r.driver.SendNet(uint8(virtio.DeviceNet), 2, raw) })

	// Just before the stall ends nothing has been forwarded.
	r.eng.At(stall-1, func() {
		if got := len(r.extVF.Poll(0)); got != 0 {
			t.Errorf("stalled IOhost forwarded %d frames", got)
		}
	})
	r.eng.Run()

	if r.hyp.Stalled() {
		t.Error("Stalled() true after the window ended")
	}
	if got := len(r.extVF.Poll(0)); got != 1 {
		t.Errorf("external node got %d frames after stall, want 1", got)
	}
	if r.hyp.Counters.Get("stalls") != 1 {
		t.Errorf("stalls counter = %d, want 1", r.hyp.Counters.Get("stalls"))
	}
}

// TestStallWindowsExtendNotStack: overlapping stalls merge into one window
// ending at the farthest deadline.
func TestStallWindowsExtendNotStack(t *testing.T) {
	r := newRig(t, 1, ModePolling)
	r.eng.At(0, func() { r.hyp.StallWorkers(100) })
	r.eng.At(50, func() { r.hyp.StallWorkers(100) })
	r.eng.At(120, func() {
		if !r.hyp.Stalled() {
			t.Error("second stall did not extend the window")
		}
	})
	r.eng.At(151, func() {
		if r.hyp.Stalled() {
			t.Error("stall window outlived the farthest deadline")
		}
	})
	r.eng.Run()
}

// TestMultiQueueStableWorkerAffinity: a 4-queue device on 3 sidecores pins
// queues to workers round-robin at registration, the pinning is readable
// through the accessors, and the per-queue in-flight tables balance to zero
// once traffic drains.
func TestMultiQueueStableWorkerAffinity(t *testing.T) {
	r := newRig(t, 3, ModePolling)
	store := blockdev.NewStore(r.p.SectorSize, 10000)
	dev := blockdev.NewDevice(r.eng, store, 100, 8)
	r.hyp.RegisterBlkDeviceMQ(r.clientMAC, 1, blockdev.NewScheduler(dev, r.p.SectorSize), nil, 4)

	if got := r.hyp.BlkQueues(r.clientMAC, 1); got != 4 {
		t.Fatalf("BlkQueues = %d, want 4", got)
	}
	for q := 0; q < 4; q++ {
		if got := r.hyp.BlkQueueWorker(r.clientMAC, 1, q); got != q%3 {
			t.Errorf("queue %d pinned to worker %d, want %d (registration-time round robin)", q, got, q%3)
		}
	}

	done := 0
	for i := 0; i < 64; i++ {
		req := virtio.BlkHdr{Type: virtio.BlkOut, Sector: uint64(i * 8)}.Encode(nil)
		req = append(req, make([]byte, 512)...)
		r.driver.SendBlkQ(uint8(virtio.DeviceBlk), 1, uint8(i%4), req, func(resp []byte, err error) {
			if err != nil {
				t.Errorf("req: %v", err)
			}
			done++
		})
	}
	r.eng.Run()
	if done != 64 {
		t.Fatalf("done = %d", done)
	}
	if left := r.hyp.BlkInFlight(); left != 0 {
		t.Errorf("BlkInFlight = %d after drain, want 0", left)
	}
	for q := 0; q < 4; q++ {
		if d := r.hyp.BlkQueueDepth(r.clientMAC, 1, q); d != 0 {
			t.Errorf("queue %d depth = %d after drain, want 0", q, d)
		}
	}
	// Queues 0..3 map onto workers {0,1,2,0}; all three must have executed.
	for i, w := range r.hyp.Workers() {
		if w.Processed == 0 {
			t.Errorf("worker %d processed nothing despite pinned queues", i)
		}
	}
}

// TestMultiQueuePerQueueFIFO: same-queue requests never migrate off their
// pinned worker, so per-queue submission order survives even though the
// device has parallel banks and other queues run concurrently. Each queue
// hammers its own sector; the final value must be that queue's last write.
func TestMultiQueuePerQueueFIFO(t *testing.T) {
	r := newRig(t, 3, ModePolling)
	store := blockdev.NewStore(r.p.SectorSize, 10000)
	dev := blockdev.NewDevice(r.eng, store, 100, 8)
	r.hyp.RegisterBlkDeviceMQ(r.clientMAC, 1, blockdev.NewScheduler(dev, r.p.SectorSize), nil, 4)

	const perQueue = 24
	completed := 0
	for i := 0; i < perQueue; i++ {
		for q := 0; q < 4; q++ {
			data := bytes.Repeat([]byte{byte(i + 1)}, 512)
			req := virtio.BlkHdr{Type: virtio.BlkOut, Sector: uint64(q)}.Encode(nil)
			req = append(req, data...)
			r.driver.SendBlkQ(uint8(virtio.DeviceBlk), 1, uint8(q), req, func(resp []byte, err error) {
				if err != nil {
					t.Errorf("write: %v", err)
				}
				completed++
			})
		}
	}
	r.eng.Run()
	if completed != 4*perQueue {
		t.Fatalf("completed %d/%d", completed, 4*perQueue)
	}
	for q := 0; q < 4; q++ {
		got, _ := store.Read(uint64(q), 1)
		if got[0] != perQueue {
			t.Errorf("queue %d final sector value = %d, want %d (per-queue order violated)",
				q, got[0], perQueue)
		}
	}
}

// A read's sector count comes off the wire. One naming more than the client
// driver can reassemble (64 MiB here, against the transport's 16 MiB) must
// be refused with BlkIOErr before the IOhost allocates its response: no
// backend execution, no retransmission, and next to no memory. Unbounded,
// the IOhost allocated the whole read on every one of the driver's attempts
// and the request still ended in a device error.
func TestOversizeReadRefusedBeforeAllocating(t *testing.T) {
	const sectors = 64 << 20 / 512
	for _, tc := range []struct {
		name string
		req  func() []byte
	}{
		{"read", func() []byte {
			return virtio.BlkHdr{Type: virtio.BlkIn}.Encode(nil)
		}},
		{"vol-read", func() []byte {
			req := virtio.BlkHdr{Type: virtio.BlkVolIn}.Encode(nil)
			return virtio.VolHdr{Extent: 0, Version: 0}.Encode(req)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, 1, ModePolling)
			store := blockdev.NewStore(r.p.SectorSize, 1<<21) // 1 GiB
			dev := blockdev.NewDevice(r.eng, store, r.p.RamdiskLatency, 1)
			r.hyp.RegisterVolReplica(r.clientMAC, 1, dev, nil, 1)
			req := binary.LittleEndian.AppendUint32(tc.req(), sectors)

			var status byte = 0xFF
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			r.driver.SendBlk(uint8(virtio.DeviceBlk), 1, req, func(resp []byte, err error) {
				if err != nil || len(resp) != 1 {
					t.Errorf("resp=%d bytes err=%v, want a lone status byte", len(resp), err)
					return
				}
				status = resp[0]
			})
			r.eng.Run()
			runtime.ReadMemStats(&after)

			if status != virtio.BlkIOErr {
				t.Errorf("status = %d, want BlkIOErr", status)
			}
			if n := r.driver.Counters.Get("retransmits"); n != 0 {
				t.Errorf("%d retransmits, want 0", n)
			}
			if dev.Served != 0 {
				t.Errorf("backend served %d requests, want 0", dev.Served)
			}
			if n := r.hyp.Counters.Get("oversize_reads"); n != 1 {
				t.Errorf("oversize_reads = %d, want 1", n)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
				t.Errorf("refusing the read allocated %d bytes, want under 1 MiB", alloc)
			}
		})
	}
}
