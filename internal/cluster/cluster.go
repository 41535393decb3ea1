// Package cluster assembles the §5 testbeds: VMhosts, load generators, the
// rack switch, and — for vRIO — the IOhost with its directly cabled channel
// NICs. One Build call produces a ready testbed for any of the five
// evaluated configurations.
package cluster

import (
	"fmt"

	"vrio/internal/blockdev"
	"vrio/internal/bufpool"
	"vrio/internal/core"
	"vrio/internal/cpu"
	"vrio/internal/ethernet"
	"vrio/internal/fault"
	"vrio/internal/guestos"
	"vrio/internal/interpose"
	"vrio/internal/iohyp"
	"vrio/internal/link"
	"vrio/internal/nic"
	"vrio/internal/params"
	"vrio/internal/sim"
	"vrio/internal/trace"
	"vrio/internal/transport"
	"vrio/internal/workload"
)

// flightCapacity bounds each shard's flight-recorder ring. 256 entries is
// plenty to cover the events leading up to an anomaly (a heartbeat-miss
// sequence, a burst of no-route drops) while keeping the recorder's memory
// fixed regardless of run length.
const flightCapacity = 256

// MAC numbering plan.
const (
	macGuestBase     = 1000 // F addresses, by global VM index
	macTransportBase = 2000 // vRIO T addresses, by global VM index
	macStationBase   = 3000 // load generators
	macHostBase      = 4000 // host NICs (baseline/elvis/optimum uplinks)
	macIOHostBase    = 5000 // IOhost i: uplink 5000+100i, channel to VMhost h 5000+100i+1+h
	// macVolBase numbers the per-(guest, IOhost) volume transport MACs:
	// guest vm's driver toward IOhost io is 20000 + 64*vm + io.
	macVolBase = 20000
)

// Spec describes a testbed.
type Spec struct {
	Model core.ModelName
	// VMHosts and VMsPerHost shape the rack; most microbenchmarks use one
	// VMhost (Figure 6), the scalability experiment four (§5).
	VMHosts    int
	VMsPerHost int
	// SidecoresPerHost applies to Elvis; IOhostSidecores to vRIO.
	SidecoresPerHost int
	IOhostSidecores  int
	// WithBlock attaches a per-VM 1 GB block device (local for
	// baseline/elvis, remote on the IOhost for vRIO).
	WithBlock bool
	// BlockLatency overrides the ramdisk latency (0 = params default).
	BlockLatency sim.Time
	// BlkQueues gives every vRIO block device NQ submission queues with
	// NVMe-style queue-pair passthrough: each queue pinned to an IOhost
	// worker, range conflicts arbitrated by a blockdev.Scheduler in front
	// of the device. 0 or 1 keeps the legacy single-queue path (vRIO
	// models only; local models have no queues to pin).
	BlkQueues int
	// BlockWays overrides the per-device bank parallelism (0 = 4).
	BlockWays int
	// VolReplicas > 0 attaches a distributed volume to every guest: extents
	// striped across all NumIOhosts IOhosts with VolReplicas-way replication
	// (DESIGN.md §16; vRIO models only, requires VolReplicas <= NumIOhosts).
	// Each guest gets one replica device per IOhost plus a core.VolumeRouter
	// (tb.Volumes) steering quorum writes and replica reads over dedicated
	// per-IOhost transport drivers.
	VolReplicas int
	// VolQuorum is the write quorum W (acks before completion); 0 defaults
	// to VolReplicas (write-all).
	VolQuorum int
	// VolExtentSectors is the stripe unit in sectors (0 = 128).
	VolExtentSectors uint64
	// VolCapacitySectors is the volume size in sectors (0 = 4096 — small,
	// so rebuild experiments copy a bounded extent population).
	VolCapacitySectors uint64
	// VolQueues is the submission-queue count per replica device (0 = 1;
	// >1 wraps each replica in a range-conflict Scheduler, like BlkQueues).
	VolQueues int
	// NetChain, if set, builds the interposition chain for VM (host, vm).
	NetChain func(host, vm int) *interpose.Chain
	// BlkChain likewise for block devices.
	BlkChain func(host, vm int) *interpose.Chain
	// WithThreads attaches a guest thread scheduler (needed by Filebench).
	WithThreads bool
	// BareClients marks vRIO IOclients as bare-metal OSes (§4.6): same
	// datapath, plain host interrupts instead of ELI.
	BareClients bool
	// StationPerVM gives every VM its own load generator (the macro
	// benchmarks need enough generator capacity not to be the bottleneck;
	// the paper used four generator machines).
	StationPerVM bool
	// NoJitter disables the per-core OS-interference process (used by
	// tests that assert exact deterministic timings).
	NoJitter bool
	// Trace enables datapath span tracing: Build creates a Tracer on the
	// testbed's engine and threads it through the transport drivers and the
	// I/O hypervisor. Off (the default) costs the datapath nothing.
	Trace bool
	// NumIOhosts builds a rack with N active IOhosts (vRIO models only;
	// default 1). Every VMhost is cabled — VF plus MessagePort — to every
	// IOhost, and Placement decides which IOhost serves each guest's
	// devices. The survivors are the §4.6 fallback: RehomeClient (or the
	// rack controller's heartbeat) moves a dead IOhost's guests onto them.
	NumIOhosts int
	// Placement maps guest vm (GLOBAL index, host-major — unlike
	// NetChain/BlkChain, whose vm is per-host) on VMhost host to the IOhost
	// in [0, NumIOhosts) that serves its devices. Nil places everything on
	// IOhost 0. See internal/rack for pluggable policies.
	Placement func(host, vm int) int
	// Fault, when non-nil, arms deterministic fault injection across the
	// rack: Build attaches the profile to every cable, client VF, and
	// IOhost it assembles (see internal/fault). Nil keeps the datapath's
	// zero-allocation fast path untouched.
	Fault *fault.Profile
	// FaultSeed seeds the fault plan's RNG streams independently of Seed,
	// so the same workload can replay under different fault draws. Zero
	// derives it from Seed.
	FaultSeed uint64
	// MACOffset shifts every MAC this testbed mints (guests, transports,
	// stations, IOhosts) by a constant, so several racks built into one
	// fabric own disjoint address blocks. The fabric builder gives rack r
	// the block [r<<20, (r+1)<<20); standalone testbeds leave it zero,
	// which reproduces the historical addresses exactly.
	MACOffset uint32
	// Params: nil means params.Default().
	Params *params.P
	Seed   uint64
}

// Testbed is an assembled rack.
type Testbed struct {
	Eng    *sim.Engine
	P      *params.P
	Spec   Spec
	Switch *link.Switch

	// Guests in global order (host-major); GuestHost[i] is its host index.
	Guests    []*core.Guest
	GuestHost []int
	// Stations: one load generator per VMhost.
	Stations []*workload.Station
	// VMCores[i] is guest i's core; Sidecores are the polling cores
	// (per-host for Elvis, IOhost-resident for vRIO), IOCores the
	// baseline's shared vhost cores (one per host).
	VMCores   []*cpu.Core
	Sidecores []*cpu.Core
	IOCores   []*cpu.Core
	GenCores  []*cpu.Core

	// IOHyps lists every IOhost's hypervisor (vRIO models only; empty
	// otherwise). IOHyps[0] is the paper's rack IOhost.
	IOHyps []*iohyp.IOHypervisor
	// SidecoresByIOhost groups Sidecores per active IOhost (vRIO models).
	SidecoresByIOhost [][]*cpu.Core
	// ClientIOhost[vm] is the IOhost currently serving guest vm's devices;
	// RehomeClient and the rack controller keep it up to date.
	ClientIOhost []int
	// ClientRegs[vm] records guest vm's device registrations so the control
	// plane can re-create them on another IOhost.
	ClientRegs []ClientReg
	// VRIOClients by global VM index (vRIO models only).
	VRIOClients []*core.VRIOClient
	// BlockDevices by global VM index (when WithBlock).
	BlockDevices []*blockdev.Device
	// BlockSchedulers are the per-device range-conflict arbiters, in device
	// order, present only when BlkQueues > 1 (the registered backends).
	BlockSchedulers []*blockdev.Scheduler
	// Threads by global VM index (when WithThreads).
	Threads []*guestos.VCPU
	// Volumes[vm] is guest vm's distributed-volume router (only when
	// Spec.VolReplicas > 0; empty otherwise).
	Volumes []*core.VolumeRouter
	// VolReplicaDevices[vm][io] is the replica device backing guest vm's
	// volume on IOhost io (test verification reads its Store and Replica).
	VolReplicaDevices [][]*blockdev.Device

	// Fault is the instantiated fault plan (inert when Spec.Fault is nil).
	// Its counters and wire tallies are registered as "fault" metrics.
	Fault *fault.Plan

	// Tracer records datapath spans when Spec.Trace is set (nil otherwise —
	// the zero-cost disabled tracer).
	Tracer *trace.Tracer
	// Flight is the rack's always-on flight recorder: a bounded ring of
	// recent anomaly-relevant events (switch drops, controller events,
	// heartbeat misses), dumped on anomalies by the datacenter rollup. Fixed
	// capacity, so it costs nothing proportional to run length.
	Flight *trace.FlightRecorder
	// Metrics is the per-component metrics registry, populated at Build
	// time for every testbed. Experiments read component counters through
	// it, and StartMetricsSampling snapshots it at sim-time intervals.
	Metrics *trace.Registry

	// pool is the testbed-wide buffer pool: every NIC shares it, so wire
	// buffers circulate between the hosts of this (single-threaded)
	// simulation cell instead of being reallocated per frame.
	pool *bufpool.Pool

	// channels[i][h] is VMhost h's cable into IOhost i, for live migration
	// and re-homing.
	channels [][]vrioChannel
	nextTMAC uint32
}

// vrioChannel is one VMhost's cable into one IOhost.
type vrioChannel struct {
	vmhostNIC *nic.NIC
	iohostMAC ethernet.MAC
	port      *nic.MessagePort
}

// ClientReg is one IOclient's device registrations, kept so the control
// plane can re-register them on another IOhost (automatic re-home after a
// failure, or a rebalancing move).
type ClientReg struct {
	FMAC      ethernet.MAC
	Backend   blockdev.Backend // nil without WithBlock
	NetChain  *interpose.Chain // nil means the IOhost's default chain
	BlkChain  *interpose.Chain
	BlkQueues int // submission queues to re-register with (<=1 single-queue)
}

func (s *Spec) defaults() {
	if s.VMHosts == 0 {
		s.VMHosts = 1
	}
	if s.VMsPerHost == 0 {
		s.VMsPerHost = 1
	}
	if s.SidecoresPerHost == 0 {
		s.SidecoresPerHost = 1
	}
	if s.IOhostSidecores == 0 {
		s.IOhostSidecores = 1
	}
	if s.NumIOhosts == 0 {
		s.NumIOhosts = 1
	}
	if s.VolReplicas > 0 {
		if s.VolQuorum == 0 {
			s.VolQuorum = s.VolReplicas // write-all
		}
		if s.VolExtentSectors == 0 {
			s.VolExtentSectors = 128
		}
		if s.VolCapacitySectors == 0 {
			s.VolCapacitySectors = 4096
		}
		if s.VolQueues == 0 {
			s.VolQueues = 1
		}
	}
}

// Build assembles the testbed on a fresh engine.
func Build(spec Spec) *Testbed { return BuildOn(spec, sim.NewEngine()) }

// BuildOn assembles the testbed on a caller-supplied engine. The fabric
// builder uses it to put each rack on its own shard's engine; everything
// else about the build is identical to Build.
func BuildOn(spec Spec, eng *sim.Engine) *Testbed {
	spec.defaults()
	p := spec.Params
	if p == nil {
		def := params.Default()
		p = &def
	}
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if spec.BlockLatency == 0 {
		spec.BlockLatency = p.RamdiskLatency
	}
	isVRIO := spec.Model == core.ModelVRIO || spec.Model == core.ModelVRIONoPoll
	if (spec.NumIOhosts > 1 || spec.Placement != nil) && !isVRIO {
		panic(fmt.Sprintf("cluster: NumIOhosts/Placement require a vRIO model, got %q", spec.Model))
	}
	if spec.BlkQueues > 1 && !isVRIO {
		panic(fmt.Sprintf("cluster: BlkQueues requires a vRIO model, got %q", spec.Model))
	}
	if spec.BlkQueues > 256 {
		panic("cluster: queue ids are one byte; BlkQueues must be <= 256")
	}
	if spec.VolReplicas > 0 {
		if !isVRIO {
			panic(fmt.Sprintf("cluster: VolReplicas requires a vRIO model, got %q", spec.Model))
		}
		if spec.VolReplicas > spec.NumIOhosts {
			panic(fmt.Sprintf("cluster: VolReplicas (%d) cannot exceed NumIOhosts (%d)", spec.VolReplicas, spec.NumIOhosts))
		}
		if spec.VolQuorum > spec.VolReplicas {
			panic(fmt.Sprintf("cluster: VolQuorum (%d) cannot exceed VolReplicas (%d)", spec.VolQuorum, spec.VolReplicas))
		}
	}

	tb := &Testbed{
		Eng:     eng,
		P:       p,
		Spec:    spec,
		Metrics: trace.NewRegistry(),
		Flight:  trace.NewFlightRecorder(flightCapacity),
		pool:    bufpool.New(),
	}
	if spec.Trace {
		tb.Tracer = trace.New(tb.Eng)
	}
	// Fault plan: built first so every cable/VF/IOhost assembled below can
	// attach in deterministic build order. A nil Spec.Fault plan is inert.
	fseed := spec.FaultSeed
	if fseed == 0 {
		fseed = spec.Seed ^ 0xfa017
	}
	tb.Fault = fault.NewPlan(tb.Eng, spec.Fault, fseed)
	tb.Fault.Tracer = tb.Tracer
	tb.Switch = link.NewSwitch(tb.Eng, p.SwitchLatency)
	tb.Switch.OnDrop = func(r link.DropReason) {
		tb.Flight.Record(tb.Eng.Now(), "switch_drop", r.String(), 0)
	}
	nicCfg := nic.Config{
		ProcessCost:   p.NICProcessCost,
		CoalesceDelay: p.IRQCoalesceDelay,
		RxRingSize:    p.RxRingSize,
	}

	// Load generators: one station per VMhost (or per VM), each on its own
	// switch port.
	stations := spec.VMHosts
	if spec.StationPerVM {
		stations = spec.VMHosts * spec.VMsPerHost
	}
	for i := 0; i < stations; i++ {
		cable := link.NewDuplex(tb.Eng, p.LinkBandwidth10G, p.WireLatency)
		tb.Switch.AttachPort(cable)
		tb.Fault.AttachCable(fault.Stations, i, fault.Any, cable)
		genNIC := tb.newNIC(fmt.Sprintf("gen%d", i), nicCfg, cable.AtoB)
		cable.BtoA.SetReceiver(genNIC)
		genCore := cpu.New(tb.Eng, fmt.Sprintf("gen%d-core", i), p.ContextSwitchCost)
		vf := genNIC.AddVF(tb.mac(macStationBase+uint32(i)), nic.ModeInterrupt)
		tb.GenCores = append(tb.GenCores, genCore)
		tb.Stations = append(tb.Stations, workload.NewStation(tb.Eng, p, genCore, vf))
	}

	defer tb.attachJitter()

	switch spec.Model {
	case core.ModelOptimum:
		tb.buildLocal(nicCfg, func(hostIdx int, hostNIC *nic.NIC) localHost {
			h := core.NewOptimumHost(tb.Eng, p, fmt.Sprintf("vmhost%d", hostIdx), hostNIC)
			return localHost{addVM: func(id int, c *cpu.Core, mac ethernet.MAC, _ blockdev.Backend, _ *interpose.Chain) *core.Guest {
				return h.AddVM(id, c, mac)
			}}
		})
	case core.ModelBaseline:
		tb.buildLocal(nicCfg, func(hostIdx int, hostNIC *nic.NIC) localHost {
			ioCore := cpu.New(tb.Eng, fmt.Sprintf("vmhost%d-io", hostIdx), p.ContextSwitchCost)
			tb.IOCores = append(tb.IOCores, ioCore)
			h := core.NewBaselineHost(tb.Eng, p, fmt.Sprintf("vmhost%d", hostIdx), ioCore, hostNIC)
			return localHost{addVM: h.AddVM}
		})
	case core.ModelElvis:
		tb.buildLocal(nicCfg, func(hostIdx int, hostNIC *nic.NIC) localHost {
			var sides []*cpu.Core
			for s := 0; s < spec.SidecoresPerHost; s++ {
				sc := cpu.New(tb.Eng, fmt.Sprintf("vmhost%d-side%d", hostIdx, s), p.ContextSwitchCost)
				sides = append(sides, sc)
				tb.Sidecores = append(tb.Sidecores, sc)
			}
			h := core.NewElvisHost(tb.Eng, p, fmt.Sprintf("vmhost%d", hostIdx), sides, hostNIC, spec.Seed+uint64(hostIdx))
			return localHost{addVM: h.AddVM}
		})
	case core.ModelVRIO, core.ModelVRIONoPoll:
		tb.buildVRIO(nicCfg)
	default:
		panic(fmt.Sprintf("cluster: unknown model %q", spec.Model))
	}
	for i, h := range tb.IOHyps {
		tb.Fault.AttachIOhost(i, h)
	}
	tb.Fault.Start()
	tb.registerMetrics()
	return tb
}

// mac mints a MAC in this testbed's address block: the numbering plan's id
// shifted by Spec.MACOffset, so racks of one fabric never collide.
func (tb *Testbed) mac(id uint32) ethernet.MAC {
	return ethernet.NewMAC(tb.Spec.MACOffset + id)
}

// newNIC builds a NIC attached to the testbed-wide buffer pool.
func (tb *Testbed) newNIC(name string, cfg nic.Config, tx *link.Wire) *nic.NIC {
	n := nic.New(tb.Eng, name, cfg, tx)
	n.SetPool(tb.pool)
	return n
}

// localHost abstracts the three local models' AddVM signatures.
type localHost struct {
	addVM func(id int, c *cpu.Core, mac ethernet.MAC, blk blockdev.Backend, chain *interpose.Chain) *core.Guest
}

// buildLocal assembles optimum/baseline/elvis VMhosts on the switch.
func (tb *Testbed) buildLocal(nicCfg nic.Config, mkHost func(hostIdx int, hostNIC *nic.NIC) localHost) {
	spec := tb.Spec
	p := tb.P
	vmID := 0
	for hostIdx := 0; hostIdx < spec.VMHosts; hostIdx++ {
		cable := link.NewDuplex(tb.Eng, p.LinkBandwidth10G, p.WireLatency)
		tb.Switch.AttachPort(cable)
		tb.Fault.AttachCable(fault.Locals, hostIdx, fault.Any, cable)
		hostNIC := tb.newNIC(fmt.Sprintf("vmhost%d-nic", hostIdx), nicCfg, cable.AtoB)
		cable.BtoA.SetReceiver(hostNIC)
		h := mkHost(hostIdx, hostNIC)

		for v := 0; v < spec.VMsPerHost; v++ {
			vmCore := cpu.New(tb.Eng, fmt.Sprintf("vm%d-core", vmID), p.ContextSwitchCost)
			tb.VMCores = append(tb.VMCores, vmCore)
			var backend blockdev.Backend
			if spec.WithBlock {
				backend = tb.newBlockDevice()
			}
			var chain *interpose.Chain
			if spec.NetChain != nil {
				chain = spec.NetChain(hostIdx, v)
			}
			if spec.BlkChain != nil && chain == nil {
				chain = spec.BlkChain(hostIdx, v)
			}
			g := h.addVM(vmID, vmCore, tb.mac(macGuestBase+uint32(vmID)), backend, chain)
			tb.attachThreads(g)
			tb.Guests = append(tb.Guests, g)
			tb.GuestHost = append(tb.GuestHost, hostIdx)
			vmID++
		}
	}
}

// iohostName numbers IOhosts the way the testbed always has: the first is
// plain "iohost", extras are "iohost2", "iohost3", ...
func iohostName(i int) string {
	if i == 0 {
		return "iohost"
	}
	return fmt.Sprintf("iohost%d", i+1)
}

// newIOHyp builds IOhost i's sidecores and I/O hypervisor, appending to
// Sidecores/SidecoresByIOhost/IOHyps.
func (tb *Testbed) newIOHyp(i int, mode iohyp.Mode) {
	p := tb.P
	var sides []*cpu.Core
	for s := 0; s < tb.Spec.IOhostSidecores; s++ {
		sc := cpu.New(tb.Eng, fmt.Sprintf("%s-side%d", iohostName(i), s), p.ContextSwitchCost)
		sides = append(sides, sc)
		tb.Sidecores = append(tb.Sidecores, sc)
	}
	seed := tb.Spec.Seed
	if i > 0 {
		// Each extra IOhost decorrelates its worker RNG by index.
		seed = tb.Spec.Seed ^ 0xfa11 ^ uint64(i-1)<<20
	}
	h := iohyp.New(tb.Eng, iohyp.Config{
		Params: p, Mode: mode, Sidecores: sides, Seed: seed,
		Tracer: tb.Tracer,
	})
	tb.SidecoresByIOhost = append(tb.SidecoresByIOhost, sides)
	tb.IOHyps = append(tb.IOHyps, h)
}

// attachIOhostUplink cables IOhost i to the rack switch (40G, promiscuous
// for all F MACs).
func (tb *Testbed) attachIOhostUplink(i int, nicCfg nic.Config) {
	p := tb.P
	up := link.NewDuplex(tb.Eng, p.LinkBandwidth40G, p.WireLatency)
	tb.Switch.AttachPort(up)
	tb.Fault.AttachCable(fault.Uplinks, fault.Any, i, up)
	upNIC := tb.newNIC(iohostName(i)+"-uplink", nicCfg, up.AtoB)
	up.BtoA.SetReceiver(upNIC)
	vf := upNIC.AddVF(tb.mac(macIOHostBase+100*uint32(i)), nic.ModePoll)
	upNIC.Promiscuous = vf
	tb.IOHyps[i].AttachUplink(vf)
}

// cableChannel runs the dedicated 40G cable between VMhost host and IOhost i
// and appends it to channels[i].
func (tb *Testbed) cableChannel(i, host int, nicCfg nic.Config) {
	p := tb.P
	ch := link.NewDuplex(tb.Eng, p.LinkBandwidth40G, p.WireLatency)
	tb.Fault.AttachCable(fault.Channels, host, i, ch)
	vmName := fmt.Sprintf("vmhost%d-ch", host)
	if i > 0 {
		vmName = fmt.Sprintf("vmhost%d-ch%d", host, i+1)
	}
	vmhostNIC := tb.newNIC(vmName, nicCfg, ch.AtoB)
	iohostNIC := tb.newNIC(fmt.Sprintf("%s-ch%d", iohostName(i), host), nicCfg, ch.BtoA)
	ch.AtoB.SetReceiver(iohostNIC)
	ch.BtoA.SetReceiver(vmhostNIC)
	iohostVF := iohostNIC.AddVF(tb.mac(macIOHostBase+100*uint32(i)+1+uint32(host)), nic.ModePoll)
	port := tb.IOHyps[i].AttachChannelNIC(iohostVF)
	tb.channels[i] = append(tb.channels[i], vrioChannel{
		vmhostNIC: vmhostNIC, iohostMAC: iohostVF.MAC(), port: port,
	})
}

// buildVRIO assembles VMhosts direct-cabled to NumIOhosts IOhosts, plus each
// IOhost's uplink to the switch (Figure 2b's wiring, generalized to a rack
// with several IOhosts). Every VMhost is cabled to every IOhost; Placement
// (default: everything on IOhost 0) decides which IOhost serves each
// guest's devices.
func (tb *Testbed) buildVRIO(nicCfg nic.Config) {
	spec := tb.Spec
	p := tb.P
	numIO := spec.NumIOhosts
	tb.channels = make([][]vrioChannel, numIO)

	mode := iohyp.ModePolling
	if spec.Model == core.ModelVRIONoPoll {
		mode = iohyp.ModeInterrupt
	}
	// IOhost 0 — the paper's rack IOhost — then the extra IOhosts (2..N),
	// each with its uplink to the switch.
	for i := 0; i < numIO; i++ {
		tb.newIOHyp(i, mode)
		tb.attachIOhostUplink(i, nicCfg)
	}

	vmID := 0
	for hostIdx := 0; hostIdx < spec.VMHosts; hostIdx++ {
		// Dedicated channels: VMhost <-> each IOhost, 40G direct cables.
		for i := 0; i < numIO; i++ {
			tb.cableChannel(i, hostIdx, nicCfg)
		}

		ch0 := tb.channels[0][hostIdx]
		host := core.NewVRIOHost(tb.Eng, p, fmt.Sprintf("vmhost%d", hostIdx), ch0.vmhostNIC, ch0.iohostMAC)
		host.Tracer = tb.Tracer
		for v := 0; v < spec.VMsPerHost; v++ {
			vmCore := cpu.New(tb.Eng, fmt.Sprintf("vm%d-core", vmID), p.ContextSwitchCost)
			tb.VMCores = append(tb.VMCores, vmCore)
			fMAC := tb.mac(macGuestBase + uint32(vmID))
			tMAC := tb.mac(macTransportBase + uint32(vmID))
			client := host.AddClient(core.VMConfig{
				ID:           vmID,
				Core:         vmCore,
				NetMAC:       fMAC,
				TransportMAC: tMAC,
				WithBlock:    spec.WithBlock,
				Bare:         spec.BareClients,
			})
			// Placement: which IOhost serves this guest's devices. AddClient
			// wired the client to IOhost 0's cable; anywhere else means
			// re-attaching to that IOhost's cable before first use.
			io := 0
			if spec.Placement != nil {
				io = spec.Placement(hostIdx, vmID)
				if io < 0 || io >= numIO {
					panic(fmt.Sprintf("cluster: Placement(%d, %d) = %d out of range [0,%d)", hostIdx, vmID, io, numIO))
				}
			}
			if io != 0 {
				ch := tb.channels[io][hostIdx]
				vf := ch.vmhostNIC.AddVF(tMAC, nic.ModeInterrupt)
				client.AttachChannel(vf, ch.iohostMAC)
			}
			// Port faults target the client's channel VF as it stands after
			// placement.
			tb.Fault.AttachVF(vmID, client.Port.VF())
			hyp := tb.IOHyps[io]
			hyp.BindClient(tMAC, tb.channels[io][hostIdx].port)
			var netChain, blkChain *interpose.Chain
			if spec.NetChain != nil {
				netChain = spec.NetChain(hostIdx, v)
			}
			if spec.BlkChain != nil {
				blkChain = spec.BlkChain(hostIdx, v)
			}
			hyp.RegisterNetDevice(tMAC, client.NetDeviceID(), fMAC, netChain)
			var blkBackend blockdev.Backend
			if spec.WithBlock {
				dev := tb.newBlockDevice()
				blkBackend = dev
				if spec.BlkQueues > 1 {
					// Multi-queue submission breaks the guest-side
					// one-outstanding-per-range guarantee, so the IOhost
					// arbitrates: a range-conflict scheduler in front of the
					// device serializes overlapping writes across queues
					// while disjoint I/O runs on the device's banks.
					blkBackend = blockdev.NewScheduler(dev, tb.P.SectorSize)
					tb.BlockSchedulers = append(tb.BlockSchedulers, blkBackend.(*blockdev.Scheduler))
				}
				hyp.RegisterBlkDeviceMQ(tMAC, client.BlkDeviceID(), blkBackend, blkChain, spec.BlkQueues)
			}
			if spec.VolReplicas > 0 {
				tb.buildGuestVolume(hostIdx, vmID)
			}
			tb.attachThreads(client.Guest)
			tb.VRIOClients = append(tb.VRIOClients, client)
			tb.ClientIOhost = append(tb.ClientIOhost, io)
			reg := ClientReg{FMAC: fMAC, NetChain: netChain, BlkChain: blkChain, BlkQueues: spec.BlkQueues}
			if blkBackend != nil {
				reg.Backend = blkBackend
			}
			tb.ClientRegs = append(tb.ClientRegs, reg)
			tb.Guests = append(tb.Guests, client.Guest)
			tb.GuestHost = append(tb.GuestHost, hostIdx)
			vmID++
		}
	}
}

// buildGuestVolume assembles guest vmID's distributed volume: one replica
// device (own store + version ledger) registered on EVERY IOhost, one
// dedicated transport driver per IOhost riding that VMhost's existing
// channel cable, and a core.VolumeRouter steering extents across them.
// Registering a replica on every IOhost — not just the R in an extent's
// initial replica set — is what lets rebuild retarget lost copies onto any
// survivor without new control-plane work.
func (tb *Testbed) buildGuestVolume(hostIdx, vmID int) {
	spec := tb.Spec
	p := tb.P
	if spec.NumIOhosts > 64 {
		panic("cluster: volumes support at most 64 IOhosts (MAC plan and rebuild bitmask)")
	}
	vspec := blockdev.VolumeSpec{
		Stripes:         spec.NumIOhosts,
		Replicas:        spec.VolReplicas,
		WriteQuorum:     spec.VolQuorum,
		ExtentSectors:   spec.VolExtentSectors,
		CapacitySectors: spec.VolCapacitySectors,
		Queues:          spec.VolQueues,
	}
	if err := vspec.Validate(); err != nil {
		panic(err)
	}
	// Vol device ids live far above the net/blk ids (2*vm, 2*vm+1) so the
	// id spaces can never collide on a shared IOhost registration map.
	volID := uint16(0x4000 + vmID)
	drivers := make([]*transport.Driver, spec.NumIOhosts)
	devs := make([]*blockdev.Device, spec.NumIOhosts)
	for io := 0; io < spec.NumIOhosts; io++ {
		store := blockdev.NewStore(p.SectorSize, spec.VolCapacitySectors)
		ways := spec.BlockWays
		if ways == 0 {
			ways = 4
		}
		dev := blockdev.NewDevice(tb.Eng, store, spec.BlockLatency, ways)
		dev.AttachReplica(blockdev.NewReplicaState(vspec))
		devs[io] = dev
		var backend blockdev.Backend = dev
		if spec.VolQueues > 1 {
			// Same arbitration as BlkQueues: multi-queue submission loses
			// the one-outstanding-per-range guarantee, so the IOhost
			// serializes overlapping ranges in front of the device.
			backend = blockdev.NewScheduler(dev, p.SectorSize)
		}

		ch := tb.channels[io][hostIdx]
		volMAC := tb.mac(macVolBase + 64*uint32(vmID) + uint32(io))
		vf := ch.vmhostNIC.AddVF(volMAC, nic.ModeInterrupt)
		port := nic.NewMessagePort(vf, p.MTU)
		drv := transport.NewDriver(tb.Eng, port, ch.iohostMAC, transport.Config{
			InitialTimeout: p.RetransmitTimeout,
			MaxRetransmits: p.MaxRetransmits,
		})
		drv.Tracer = tb.Tracer
		vf.OnInterrupt(func(frames [][]byte) { port.HandleBatch(frames) })
		port.OnMessage = func(_ ethernet.MAC, msg []byte, _ bool, _ int) {
			_ = drv.Deliver(msg)
		}
		drivers[io] = drv

		hyp := tb.IOHyps[io]
		hyp.BindClient(volMAC, ch.port)
		hyp.RegisterVolReplica(volMAC, volID, backend, nil, spec.VolQueues)
	}
	router := core.NewVolumeRouter(tb.Eng, vspec, volID, drivers)
	tb.Volumes = append(tb.Volumes, router)
	tb.VolReplicaDevices = append(tb.VolReplicaDevices, devs)
}

// IOhostDied tells every volume router that IOhost i is gone, queueing
// rebuilds for the replica cells it held. The rack controller's heartbeat
// detector calls this alongside its guest re-homing (rack imports cluster,
// so the hook lives here). Inert when no volumes are configured.
func (tb *Testbed) IOhostDied(i int) {
	for _, v := range tb.Volumes {
		v.OnHostDeath(i)
	}
}

// newBlockDevice builds one guest's 1 GB backing device.
func (tb *Testbed) newBlockDevice() *blockdev.Device {
	const gig = 1 << 30
	ways := tb.Spec.BlockWays
	if ways == 0 {
		ways = 4
	}
	store := blockdev.NewStore(tb.P.SectorSize, gig/uint64(tb.P.SectorSize))
	dev := blockdev.NewDevice(tb.Eng, store, tb.Spec.BlockLatency, ways)
	tb.BlockDevices = append(tb.BlockDevices, dev)
	return dev
}

func (tb *Testbed) attachThreads(g *core.Guest) {
	if !tb.Spec.WithThreads {
		tb.Threads = append(tb.Threads, nil)
		return
	}
	// Guest-level switches cost more than bare context switches: the
	// paper attributes Elvis's Figure 14 collapse to involuntary context
	// switches, whose real cost includes cache/TLB refill.
	v := guestos.NewVCPU(tb.Eng, 3*tb.P.ContextSwitchCost, tb.P.TimesliceMin)
	g.Threads = v
	tb.Threads = append(tb.Threads, v)
}

// attachJitter starts a background OS-interference process on every core:
// timer ticks and kernel housekeeping with rare long spikes. This is what
// gives the Table 4 tail-latency distributions their tails.
func (tb *Testbed) attachJitter() {
	if tb.Spec.NoJitter {
		return
	}
	rng := sim.NewRNG(tb.Spec.Seed ^ 0x71773)
	cores := append([]*cpu.Core{}, tb.VMCores...)
	cores = append(cores, tb.Sidecores...)
	cores = append(cores, tb.IOCores...)
	cores = append(cores, tb.GenCores...)
	for _, c := range cores {
		c := c
		r := rng.Fork()
		var loop func()
		loop = func() {
			tb.Eng.After(r.Exp(tb.P.JitterInterval), func() {
				d := r.Exp(tb.P.JitterMean)
				if r.Bool(tb.P.JitterSpikeProb) {
					d += tb.P.JitterSpike
				}
				c.Exec(cpu.NoOwner, cpu.KindIRQ, d, nil)
				loop()
			})
		}
		loop()
	}
}

// MigrateVM live-migrates vRIO guest vm to dstHost (§4.6): the client is
// paused for the stop-and-copy blackout, its transport re-attached to an
// SRIOV VF on the destination VMhost's channel, and the I/O hypervisor
// rebinds its devices — the F address and the remote block device never
// move, so peers and storage are undisturbed. done (optional) runs when
// the VM resumes on the destination.
func (tb *Testbed) MigrateVM(vm, dstHost int, done func()) {
	if len(tb.IOHyps) == 0 {
		panic("cluster: MigrateVM requires a vRIO testbed")
	}
	if dstHost < 0 || dstHost >= len(tb.channels[0]) {
		panic(fmt.Sprintf("cluster: no VMhost %d", dstHost))
	}
	client := tb.VRIOClients[vm]
	oldMAC := client.TransportMAC()
	client.Pause()
	tb.Eng.After(tb.P.MigrationDowntime, func() {
		// A fresh SRIOV instance on the destination's channel NIC toward the
		// IOhost serving this guest — read at resume time, since a re-home
		// (failure detection, rebalancing) may have moved the guest during
		// the blackout.
		io := tb.ClientIOhost[vm]
		tb.nextTMAC++
		newMAC := tb.mac(macTransportBase + 500 + tb.nextTMAC)
		ch := tb.channels[io][dstHost]
		vf := ch.vmhostNIC.AddVF(newMAC, nic.ModeInterrupt)
		client.AttachChannel(vf, ch.iohostMAC)
		tb.IOHyps[io].RebindClient(oldMAC, newMAC, ch.port)
		tb.GuestHost[vm] = dstHost
		client.Resume()
		if done != nil {
			done()
		}
	})
}

// RehomeClient moves guest vm's devices — and its transport channel — to
// IOhost dst (§4.6's migration machinery applied between IOhosts): the
// source, if still alive, forgets the client; the destination re-registers
// the client's devices under its unchanged T address; the client re-attaches
// to its VMhost's cable toward dst; and dst announces the F addresses so the
// rack switch re-learns them. In-flight block requests ride across on §4.5
// retransmission, since the block backends are shared (distributed storage).
func (tb *Testbed) RehomeClient(vm, dst int) {
	if len(tb.IOHyps) == 0 {
		panic("cluster: RehomeClient requires a vRIO testbed")
	}
	if dst < 0 || dst >= len(tb.IOHyps) {
		panic(fmt.Sprintf("cluster: no IOhost %d", dst))
	}
	src := tb.ClientIOhost[vm]
	if src == dst {
		return
	}
	client := tb.VRIOClients[vm]
	reg := tb.ClientRegs[vm]
	tMAC := client.TransportMAC()
	tb.IOHyps[src].UnregisterClient(tMAC)
	ch := tb.channels[dst][tb.GuestHost[vm]]
	vf := ch.vmhostNIC.VFByMAC(tMAC)
	if vf == nil {
		vf = ch.vmhostNIC.AddVF(tMAC, nic.ModeInterrupt)
	}
	client.AttachChannel(vf, ch.iohostMAC)
	hyp := tb.IOHyps[dst]
	hyp.BindClient(tMAC, ch.port)
	hyp.RegisterNetDevice(tMAC, client.NetDeviceID(), reg.FMAC, reg.NetChain)
	if reg.Backend != nil {
		hyp.RegisterBlkDeviceMQ(tMAC, client.BlkDeviceID(), reg.Backend, reg.BlkChain, reg.BlkQueues)
	}
	tb.ClientIOhost[vm] = dst
	hyp.AnnounceAddresses()
}

// StationFor returns the load generator driving guest i: its own station
// under StationPerVM, otherwise its VMhost's.
func (tb *Testbed) StationFor(guest int) *workload.Station {
	if tb.Spec.StationPerVM {
		return tb.Stations[guest]
	}
	return tb.Stations[tb.GuestHost[guest]]
}

// Run advances the simulation: warmup, then a measured window during which
// the provided Results collectors record. It returns the measured duration.
type Measurable interface {
	StartMeasuring()
	StopMeasuring()
}

// RunMeasured runs warmup + duration, toggling the collectors around the
// measurement window.
func (tb *Testbed) RunMeasured(warmup, duration sim.Time, collectors ...Measurable) sim.Time {
	tb.Eng.At(tb.Eng.Now()+warmup, func() {
		for _, c := range collectors {
			c.StartMeasuring()
		}
	})
	end := tb.Eng.Now() + warmup + duration
	tb.Eng.At(end, func() {
		for _, c := range collectors {
			c.StopMeasuring()
		}
		tb.Eng.Stop()
	})
	tb.Eng.RunUntil(end)
	return duration
}
