package core

import (
	"vrio/internal/cpu"
	"vrio/internal/ethernet"
	"vrio/internal/hypervisor"
	"vrio/internal/nic"
	"vrio/internal/params"
	"vrio/internal/sim"
)

// OptimumHost is the SRIOV+ELI configuration (§2 "Optimum"): every VM owns
// a virtual function of the host NIC and receives its interrupts exitless.
// There is no host I/O processing at all — and therefore no interposition.
type OptimumHost struct {
	eng  *sim.Engine
	p    *params.P
	name string
	nic  *nic.NIC
}

// NewOptimumHost builds the host around its (already cabled) NIC.
func NewOptimumHost(eng *sim.Engine, p *params.P, name string, hostNIC *nic.NIC) *OptimumHost {
	return &OptimumHost{eng: eng, p: p, name: name, nic: hostNIC}
}

// Name reports the host name.
func (h *OptimumHost) Name() string { return h.name }

// AddVM provisions a VM with a dedicated SRIOV VF. Optimum has no
// paravirtual block path (§5: "there is no such thing as an SRIOV
// ramdisk").
func (h *OptimumHost) AddVM(id int, core *cpu.Core, mac ethernet.MAC) *Guest {
	g := &Guest{
		VM:     hypervisor.NewVM(h.eng, h.p, id, core),
		netMAC: mac,
	}
	vf := h.nic.AddVF(mac, nic.ModeInterrupt)

	g.sendNet = func(f ethernet.Frame) {
		// Guest network stack, then straight to the VF: no exit, no host.
		// The frame is encoded now and the VF takes the slab when the
		// stack's time is up.
		raw := vf.EncodeFrame(f)
		g.VM.Compute(h.p.GuestNetStackCost+perByte(h.p.GuestTxPerByte, len(f.Payload)), func() {
			vf.SendEncoded(raw)
			// TX-completion interrupt, delivered exitless — the second
			// guest interrupt of Table 3.
			h.eng.After(h.p.NICProcessCost, func() { g.VM.GuestIRQExitless(nil) })
		})
	}

	vf.OnInterrupt(func(frames [][]byte) {
		// ELI delivers the device interrupt directly to the guest; the
		// guest stack then processes each frame of the coalesced batch.
		g.VM.GuestIRQExitless(func() {
			for _, raw := range frames {
				f, err := ethernet.Decode(raw)
				if err != nil {
					continue
				}
				g.VM.Compute(h.p.GuestNetStackCost, func() { g.deliverNet(f) })
			}
		})
	})
	return g
}
