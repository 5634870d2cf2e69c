package cluster

import (
	"fmt"

	"ursa/internal/eventloop"
)

// Gauge tracks a time-varying quantity and integrates it over virtual time,
// so utilization and SE/UE can be computed exactly rather than by sampling.
type Gauge struct {
	loop     *eventloop.Loop
	value    float64
	integral float64 // value · seconds
	last     eventloop.Time
}

// NewGauge returns a gauge starting at zero.
func NewGauge(loop *eventloop.Loop) *Gauge {
	return &Gauge{loop: loop, last: loop.Now()}
}

func (g *Gauge) settle() {
	now := g.loop.Now()
	g.integral += g.value * (now - g.last).Seconds()
	g.last = now
}

// Add shifts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	g.settle()
	g.value += delta
}

// Value returns the current level.
func (g *Gauge) Value() float64 { return g.value }

// Integral returns ∫ value dt in value·seconds, settled to now.
func (g *Gauge) Integral() float64 {
	g.settle()
	return g.integral
}

// Pool is a capacity-limited countable resource (cores or memory bytes) with
// separate accounting for the amount *allocated* (held by a container, task
// reservation or monotask) and the amount actually *used*. The distinction
// is what SE (allocated/total) and UE (used/allocated) measure in §5.
type Pool struct {
	name     string
	capacity float64
	eps      float64 // float-dust tolerance, relative to capacity
	alloc    *Gauge
	used     *Gauge
}

// NewPool returns a pool with the given capacity.
func NewPool(loop *eventloop.Loop, name string, capacity float64) *Pool {
	return &Pool{
		name:     name,
		capacity: capacity,
		eps:      capacity*1e-9 + 1e-6,
		alloc:    NewGauge(loop),
		used:     NewGauge(loop),
	}
}

// Capacity returns the pool's total capacity.
func (p *Pool) Capacity() float64 { return p.capacity }

// Allocated returns the currently allocated amount.
func (p *Pool) Allocated() float64 { return p.alloc.Value() }

// Used returns the currently used amount.
func (p *Pool) Used() float64 { return p.used.Value() }

// Free returns the unallocated capacity.
func (p *Pool) Free() float64 { return p.capacity - p.alloc.Value() }

// Empty reports whether nothing is allocated, up to the float dust that
// repeated alloc/free cycles leave behind.
func (p *Pool) Empty() bool { return p.alloc.Value() <= p.eps }

// TryAlloc reserves n units if available, reporting success.
func (p *Pool) TryAlloc(n float64) bool {
	if n < 0 {
		panic(fmt.Sprintf("cluster: negative alloc on %s", p.name))
	}
	// Tolerate float dust from repeated alloc/free cycles.
	if p.alloc.Value()+n > p.capacity+p.eps {
		return false
	}
	p.alloc.Add(n)
	return true
}

// MustAlloc reserves n units and panics if the pool would overflow; used
// where the caller has already checked availability.
func (p *Pool) MustAlloc(n float64) {
	if !p.TryAlloc(n) {
		panic(fmt.Sprintf("cluster: %s over-allocated (%.1f + %.1f > %.1f)",
			p.name, p.alloc.Value(), n, p.capacity))
	}
}

// FreeAlloc returns n allocated units to the pool.
func (p *Pool) FreeAlloc(n float64) {
	p.alloc.Add(-n)
	if v := p.alloc.Value(); v < 0 {
		if v < -p.eps {
			panic(fmt.Sprintf("cluster: %s alloc went negative (%g)", p.name, v))
		}
		p.alloc.Add(-v) // snap float dust back to zero
	}
}

// Use marks n units as actively used (compute running, memory resident).
// Usage may not exceed allocation; callers allocate first.
func (p *Pool) Use(n float64) {
	p.used.Add(n)
	if p.used.Value() > p.alloc.Value()+p.eps {
		panic(fmt.Sprintf("cluster: %s used %.2f exceeds allocated %.2f",
			p.name, p.used.Value(), p.alloc.Value()))
	}
}

// Unuse releases n used units.
func (p *Pool) Unuse(n float64) {
	p.used.Add(-n)
	if v := p.used.Value(); v < 0 {
		if v < -p.eps {
			panic(fmt.Sprintf("cluster: %s used went negative (%g)", p.name, v))
		}
		p.used.Add(-v)
	}
}

// AllocatedSeconds returns ∫ allocated dt.
func (p *Pool) AllocatedSeconds() float64 { return p.alloc.Integral() }

// UsedSeconds returns ∫ used dt.
func (p *Pool) UsedSeconds() float64 { return p.used.Integral() }
