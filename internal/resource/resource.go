// Package resource defines the resource taxonomy shared by the Ursa
// scheduler, the execution layer and the cluster simulator: the monotask
// resource kinds (CPU, network, disk) plus memory, and demand vectors over
// them.
package resource

import "fmt"

// Kind identifies a single schedulable resource type. CPU, Net and Disk are
// the monotask kinds of the paper (§1); Mem is reserved per task rather than
// per monotask (§4.2.1).
type Kind int

const (
	CPU Kind = iota
	Net
	Disk
	Mem
	numKinds
)

// MonotaskKinds lists the kinds a monotask may use, in canonical order.
var MonotaskKinds = [3]Kind{CPU, Net, Disk}

// Kinds lists every kind including memory.
var Kinds = [4]Kind{CPU, Net, Disk, Mem}

func (k Kind) String() string {
	switch k {
	case CPU:
		return "cpu"
	case Net:
		return "net"
	case Disk:
		return "disk"
	case Mem:
		return "mem"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Valid reports whether k is one of the defined kinds.
func (k Kind) Valid() bool { return k >= CPU && k < numKinds }

// Bytes is a data quantity. Input sizes, memory and network/disk work are
// all measured in bytes, following the paper's usage-estimation rule that
// per-monotask work equals its input size (§4.2.1).
type Bytes int64

const (
	KB Bytes = 1 << 10
	MB Bytes = 1 << 20
	GB Bytes = 1 << 30
	TB Bytes = 1 << 40
)

func (b Bytes) String() string {
	switch {
	case b >= TB:
		return fmt.Sprintf("%.2fTB", float64(b)/float64(TB))
	case b >= GB:
		return fmt.Sprintf("%.2fGB", float64(b)/float64(GB))
	case b >= MB:
		return fmt.Sprintf("%.2fMB", float64(b)/float64(MB))
	case b >= KB:
		return fmt.Sprintf("%.2fKB", float64(b)/float64(KB))
	}
	return fmt.Sprintf("%dB", int64(b))
}

// BytesPerSec is a processing or transfer rate.
type BytesPerSec float64

// Vector is a demand or usage amount per resource kind. CPU, Net and Disk
// entries are work in bytes (the paper's unified input-size measure); the
// Mem entry is resident bytes.
type Vector [4]float64

// Get returns the entry for kind k.
func (v Vector) Get(k Kind) float64 { return v[k] }

// Set returns a copy of v with kind k set to x.
func (v Vector) Set(k Kind, x float64) Vector {
	v[k] = x
	return v
}

// Add returns v + o elementwise.
func (v Vector) Add(o Vector) Vector {
	for i := range v {
		v[i] += o[i]
	}
	return v
}

// Sub returns v - o elementwise.
func (v Vector) Sub(o Vector) Vector {
	for i := range v {
		v[i] -= o[i]
	}
	return v
}

// Scale returns v scaled by f.
func (v Vector) Scale(f float64) Vector {
	for i := range v {
		v[i] *= f
	}
	return v
}

// Max returns the elementwise maximum of v and o.
func (v Vector) Max(o Vector) Vector {
	for i := range v {
		if o[i] > v[i] {
			v[i] = o[i]
		}
	}
	return v
}

// IsZero reports whether every entry is zero.
func (v Vector) IsZero() bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

func (v Vector) String() string {
	return fmt.Sprintf("{cpu:%.0f net:%.0f disk:%.0f mem:%.0f}", v[CPU], v[Net], v[Disk], v[Mem])
}
