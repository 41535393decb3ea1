package core

import (
	"testing"

	"vrio/internal/blockdev"
	"vrio/internal/bufpool"
	"vrio/internal/cpu"
	"vrio/internal/ethernet"
	"vrio/internal/nic"
	"vrio/internal/params"
	"vrio/internal/sim"
	"vrio/internal/virtio"
)

// The elvis and baseline hosts parse a read's sector count out of a chain
// the guest built. A chain too short to hold the count, or naming more
// sectors than it reserved room for, is corrupt: the host must answer
// BlkIOErr without panicking and without reaching the backend.
func TestLocalHostsRefuseCorruptReadChains(t *testing.T) {
	p := params.Default()
	type submitFn func(req []byte, respCap int, done func([]byte, error))
	models := []struct {
		name  string
		build func(eng *sim.Engine, hostNIC *nic.NIC, blk blockdev.Backend) submitFn
	}{
		{"elvis", func(eng *sim.Engine, hostNIC *nic.NIC, blk blockdev.Backend) submitFn {
			h := NewElvisHost(eng, &p, "elvis", []*cpu.Core{cpu.New(eng, "side", p.ContextSwitchCost)}, hostNIC, 1)
			h.AddVM(0, cpu.New(eng, "vcpu", p.ContextSwitchCost), ethernet.NewMAC(1), blk, nil)
			return func(req []byte, respCap int, done func([]byte, error)) {
				h.guestBlkSubmit(h.guests[0], req, respCap, done)
			}
		}},
		{"baseline", func(eng *sim.Engine, hostNIC *nic.NIC, blk blockdev.Backend) submitFn {
			h := NewBaselineHost(eng, &p, "baseline", cpu.New(eng, "io", p.ContextSwitchCost), hostNIC)
			h.AddVM(0, cpu.New(eng, "vcpu", p.ContextSwitchCost), ethernet.NewMAC(1), blk, nil)
			return func(req []byte, respCap int, done func([]byte, error)) {
				h.guestBlkSubmit(h.guests[0], req, respCap, done)
			}
		}},
	}
	chains := []struct {
		name   string
		encode func(pool *bufpool.Pool) []byte
	}{
		{"short", func(pool *bufpool.Pool) []byte { return encodeBlkReq(pool, virtio.BlkIn, 0, []byte{1, 0}) }},
		{"oversized", func(pool *bufpool.Pool) []byte { return encodeBlkRead(pool, 0, 1<<20) }}, // 512 MiB
	}
	for _, m := range models {
		for _, c := range chains {
			t.Run(m.name+"/"+c.name, func(t *testing.T) {
				eng := sim.NewEngine()
				hostNIC := nic.New(eng, "host", nic.Config{RxRingSize: p.RxRingSize}, nil)
				dev := blockdev.NewDevice(eng, blockdev.NewStore(p.SectorSize, 1<<21), p.RamdiskLatency, 1)
				submit := m.build(eng, hostNIC, dev)

				var status byte = 0xFF
				req := c.encode(hostNIC.Pool())
				submit(req, 1+p.SectorSize, func(resp []byte, err error) {
					if err != nil || len(resp) != 1 {
						t.Errorf("resp=%d bytes err=%v, want a lone status byte", len(resp), err)
						return
					}
					status = resp[0]
				})
				eng.Run()
				if status != virtio.BlkIOErr {
					t.Errorf("status = %d, want BlkIOErr", status)
				}
				if dev.Served != 0 {
					t.Errorf("backend served %d requests, want 0", dev.Served)
				}
			})
		}
	}
}
