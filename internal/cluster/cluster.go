// Package cluster simulates the hardware substrate of §5: a set of machines
// with CPU cores, memory, a network link and a disk, advanced on a virtual
// discrete-event clock. Every scheduler in this repository (Ursa and all
// baselines) runs against this same physics, so relative results reflect
// scheduling policy rather than modelling differences.
package cluster

import (
	"fmt"

	"ursa/internal/eventloop"
	"ursa/internal/resource"
)

// Config describes the simulated cluster hardware. The top-level fields
// describe one uniform machine shape; Profiles, when set, replaces it with a
// heterogeneous mix (the uniform fields then serve as defaults for any zero
// profile field).
type Config struct {
	Machines        int
	CoresPerMachine int
	MemPerMachine   resource.Bytes
	// NetBandwidth is each machine's downlink (and uplink) in bytes/s.
	NetBandwidth resource.BytesPerSec
	// DiskBandwidth is the sequential bandwidth of the machine's disk.
	DiskBandwidth resource.BytesPerSec
	// CoreRate is the work-processing rate of one core in work-bytes/s.
	// The paper measures CPU monotask work by input size (§4.2.1); a
	// monotask of W work bytes and compute intensity c occupies a core for
	// c·W / CoreRate seconds.
	CoreRate resource.BytesPerSec
	// NetPerFlowFraction caps a single flow at this fraction of the link
	// (0 disables the cap). It models per-connection stack overhead so a
	// lone transfer does not saturate a 10 GbE link.
	NetPerFlowFraction float64

	// Profiles, when non-empty, makes the cluster heterogeneous: machines
	// are built group by group from this list (sum of Counts machines in
	// total; Machines is ignored for construction and updated to match).
	// Zero fields of a profile inherit the uniform fields above. Nil keeps
	// the legacy uniform cluster, bit-identical to before profiles existed.
	Profiles []MachineProfile
}

// MachineProfile describes one group of identical machines within a
// heterogeneous cluster.
type MachineProfile struct {
	// Count is how many machines share this profile (≥1).
	Count int
	// Cores, Mem, NetBandwidth, DiskBandwidth and CoreRate mirror the
	// uniform Config fields; zero values inherit from them.
	Cores         int
	Mem           resource.Bytes
	NetBandwidth  resource.BytesPerSec
	DiskBandwidth resource.BytesPerSec
	CoreRate      resource.BytesPerSec
	// Contention is the fraction of the nominal CoreRate the machine
	// actually delivers — co-located load outside the scheduler's view
	// stealing cycles. The scheduler's declared rate (and the rate-monitor
	// prior) stays CoreRate; only actual execution runs at CoreRate ×
	// Contention, so measured rates drift below nominal and expose the
	// interference. 0 or 1 means uninterfered.
	Contention float64
}

// resolve fills a profile's zero fields from the uniform config and
// normalizes Contention into (0, 1].
func (cfg Config) resolve(p MachineProfile) MachineProfile {
	if p.Cores <= 0 {
		p.Cores = cfg.CoresPerMachine
	}
	if p.Mem <= 0 {
		p.Mem = cfg.MemPerMachine
	}
	if p.NetBandwidth <= 0 {
		p.NetBandwidth = cfg.NetBandwidth
	}
	if p.DiskBandwidth <= 0 {
		p.DiskBandwidth = cfg.DiskBandwidth
	}
	if p.CoreRate <= 0 {
		p.CoreRate = cfg.CoreRate
	}
	if p.Contention <= 0 || p.Contention > 1 {
		p.Contention = 1
	}
	return p
}

// Default20x32 mirrors the paper's testbed: 20 machines, 32 virtual cores,
// 128 GB RAM, 10 Gbps Ethernet, one ~170 MB/s SAS disk.
func Default20x32() Config {
	return Config{
		Machines:           20,
		CoresPerMachine:    32,
		MemPerMachine:      128 * resource.GB,
		NetBandwidth:       1.25e9, // 10 Gbps
		DiskBandwidth:      170e6,
		CoreRate:           40e6, // calibrated so workload JCTs match §5 stats
		NetPerFlowFraction: 0.75,
	}
}

// Machine is one simulated server.
type Machine struct {
	ID    int
	Cores *Pool   // unit: cores
	Mem   *Pool   // unit: bytes
	Net   *Device // receiver downlink
	Disk  *Device

	coreRate        float64 // effective: nominal × contention
	nominalCoreRate float64 // declared to the scheduler
	netBW           float64
	diskBW          float64
}

// CoreRate returns the *effective* per-core processing rate in work-bytes/s
// — the rate execution actually proceeds at, including contention from
// co-located load the scheduler cannot see.
func (m *Machine) CoreRate() float64 { return m.coreRate }

// NominalCoreRate returns the per-core rate the machine declares to the
// scheduler — the rate-monitor prior. Equal to CoreRate on uncontended
// machines.
func (m *Machine) NominalCoreRate() float64 { return m.nominalCoreRate }

// NetBandwidth returns the machine's link bandwidth in bytes/s.
func (m *Machine) NetBandwidth() float64 { return m.netBW }

// DiskBandwidth returns the machine's disk bandwidth in bytes/s.
func (m *Machine) DiskBandwidth() float64 { return m.diskBW }

// Cluster is the full simulated machine set.
type Cluster struct {
	Loop     *eventloop.Loop
	Cfg      Config
	Machines []*Machine
}

// newMachine builds one machine from a resolved profile.
func newMachine(loop *eventloop.Loop, id int, p MachineProfile, flowFrac float64) *Machine {
	return &Machine{
		ID:              id,
		Cores:           NewPool(loop, fmt.Sprintf("m%d.cores", id), float64(p.Cores)),
		Mem:             NewPool(loop, fmt.Sprintf("m%d.mem", id), float64(p.Mem)),
		Net:             NewDevice(loop, float64(p.NetBandwidth), flowFrac),
		Disk:            NewDevice(loop, float64(p.DiskBandwidth), 0),
		coreRate:        float64(p.CoreRate) * p.Contention,
		nominalCoreRate: float64(p.CoreRate),
		netBW:           float64(p.NetBandwidth),
		diskBW:          float64(p.DiskBandwidth),
	}
}

// New builds a cluster on the given loop.
func New(loop *eventloop.Loop, cfg Config) *Cluster {
	c := &Cluster{Loop: loop, Cfg: cfg}
	if len(cfg.Profiles) == 0 {
		if cfg.Machines <= 0 || cfg.CoresPerMachine <= 0 {
			panic("cluster: need at least one machine and one core")
		}
		for i := 0; i < cfg.Machines; i++ {
			c.Machines = append(c.Machines, newMachine(loop, i, cfg.resolve(MachineProfile{}), cfg.NetPerFlowFraction))
		}
		return c
	}
	for _, p := range cfg.Profiles {
		p = cfg.resolve(p)
		if p.Count <= 0 || p.Cores <= 0 {
			panic("cluster: profile needs at least one machine and one core")
		}
		for i := 0; i < p.Count; i++ {
			c.Machines = append(c.Machines, newMachine(loop, len(c.Machines), p, cfg.NetPerFlowFraction))
		}
	}
	c.Cfg.Machines = len(c.Machines)
	return c
}

// AddMachine grows the cluster by one machine built from the uniform
// hardware config, returning it. The elastic subsystem uses this to model a
// worker joining mid-run; Cfg.Machines tracks the new size so capacity
// totals stay consistent.
func (c *Cluster) AddMachine() *Machine {
	return c.AddMachineProfile(MachineProfile{})
}

// AddMachineProfile grows the cluster by one machine built from the given
// profile (zero fields inherit the uniform config). The remote master uses
// it when a joining worker advertises its own hardware shape.
func (c *Cluster) AddMachineProfile(p MachineProfile) *Machine {
	m := newMachine(c.Loop, len(c.Machines), c.Cfg.resolve(p), c.Cfg.NetPerFlowFraction)
	c.Machines = append(c.Machines, m)
	c.Cfg.Machines = len(c.Machines)
	return m
}

// Reprofile rebuilds an idle machine's pools and devices from the given
// profile (zero fields inherit the uniform config). It is how a registered
// worker's advertised hardware replaces the master's uniform assumption;
// callers must ensure nothing is allocated or in flight on the machine.
func (c *Cluster) Reprofile(m *Machine, p MachineProfile) {
	if m.Cores.Allocated() != 0 || m.Mem.Allocated() != 0 {
		panic(fmt.Sprintf("cluster: reprofile of busy machine %d", m.ID))
	}
	fresh := newMachine(c.Loop, m.ID, c.Cfg.resolve(p), c.Cfg.NetPerFlowFraction)
	m.Cores, m.Mem, m.Net, m.Disk = fresh.Cores, fresh.Mem, fresh.Net, fresh.Disk
	m.coreRate, m.nominalCoreRate = fresh.coreRate, fresh.nominalCoreRate
	m.netBW, m.diskBW = fresh.netBW, fresh.diskBW
}

// TotalCores returns the cluster-wide core count.
func (c *Cluster) TotalCores() float64 {
	var total float64
	for _, m := range c.Machines {
		total += m.Cores.Capacity()
	}
	return total
}

// TotalMem returns cluster-wide memory in bytes.
func (c *Cluster) TotalMem() float64 {
	var total float64
	for _, m := range c.Machines {
		total += m.Mem.Capacity()
	}
	return total
}

// Snapshot captures cumulative usage integrals, so a caller can compute SE
// and UE over a window as the difference of two snapshots.
type Snapshot struct {
	At               eventloop.Time
	CoreAllocSeconds float64
	CoreUsedSeconds  float64
	MemAllocByteSecs float64
	MemUsedByteSecs  float64
	NetBytesReceived float64
	DiskBytesMoved   float64
}

// Snap returns the current cumulative usage integrals.
func (c *Cluster) Snap() Snapshot {
	s := Snapshot{At: c.Loop.Now()}
	for _, m := range c.Machines {
		s.CoreAllocSeconds += m.Cores.AllocatedSeconds()
		s.CoreUsedSeconds += m.Cores.UsedSeconds()
		s.MemAllocByteSecs += m.Mem.AllocatedSeconds()
		s.MemUsedByteSecs += m.Mem.UsedSeconds()
		s.NetBytesReceived += m.Net.BytesMoved()
		s.DiskBytesMoved += m.Disk.BytesMoved()
	}
	return s
}
