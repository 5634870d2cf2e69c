package cluster

import (
	"ursa/internal/eventloop"
)

// Flow is an in-progress bulk transfer on a shared device (a machine's
// network downlink or its disk). Flows on the same device share its
// bandwidth equally, matching the paper's receiver-side sharing model for
// network monotasks (§4.2.3).
type Flow struct {
	dev       *Device
	remaining float64 // bytes left to move
	rate      float64 // current bytes/s, maintained by the device
	maxRate   float64 // per-flow cap; 0 means the device default
	onDone    func()
	done      bool
}

// Done reports whether the flow has finished.
func (f *Flow) Done() bool { return f.done }

// Remaining returns the bytes left to transfer as of the last settlement.
func (f *Flow) Remaining() float64 { return f.remaining }

// Device is a bandwidth resource shared equally among its active flows.
// PerFlowCap optionally limits how much of the capacity a single flow can
// drive (modelling per-connection stack overheads), so a lone transfer need
// not saturate the link.
type Device struct {
	loop       *eventloop.Loop
	capacity   float64 // bytes/s
	perFlowCap float64 // bytes/s; 0 means no cap
	flows      []*Flow
	lastSettle eventloop.Time
	timer      eventloop.Timer

	// bytesMoved integrates completed transfer volume for utilization
	// sampling.
	bytesMoved float64
}

// NewDevice returns a device with the given capacity in bytes/s. If
// perFlowFraction is in (0,1], a single flow is limited to that fraction of
// capacity.
func NewDevice(loop *eventloop.Loop, capacity float64, perFlowFraction float64) *Device {
	if capacity <= 0 {
		panic("cluster: device capacity must be positive")
	}
	d := &Device{loop: loop, capacity: capacity, lastSettle: loop.Now()}
	if perFlowFraction > 0 && perFlowFraction <= 1 {
		d.perFlowCap = capacity * perFlowFraction
	}
	return d
}

// Capacity returns the device capacity in bytes/s.
func (d *Device) Capacity() float64 { return d.capacity }

// BytesMoved returns the total bytes transferred through the device so far,
// settled to the current instant.
func (d *Device) BytesMoved() float64 {
	d.settle()
	return d.bytesMoved
}

// Start begins transferring the given number of bytes. onDone runs (as a
// fresh loop event) when the transfer completes. Zero-byte transfers
// complete immediately.
func (d *Device) Start(bytes float64, onDone func()) *Flow {
	return d.StartCapped(bytes, 0, onDone)
}

// StartCapped is Start with an explicit per-flow rate cap in bytes/s,
// overriding the device default. The executor baselines use it to model a
// single-threaded CPU phase on a multi-core processor-sharing device.
func (d *Device) StartCapped(bytes, maxRate float64, onDone func()) *Flow {
	d.settle()
	f := &Flow{dev: d, remaining: bytes, maxRate: maxRate, onDone: onDone}
	if bytes <= 0 {
		f.done = true
		if onDone != nil {
			d.loop.Post(onDone)
		}
		return f
	}
	d.flows = append(d.flows, f)
	d.reschedule()
	return f
}

// Abort removes an in-flight flow without running its callback. It reports
// whether the flow was still active.
func (d *Device) Abort(f *Flow) bool {
	if f == nil || f.done {
		return false
	}
	d.settle()
	for i, g := range d.flows {
		if g == f {
			d.flows = append(d.flows[:i], d.flows[i+1:]...)
			f.done = true
			d.reschedule()
			return true
		}
	}
	return false
}

// settle advances all flow progress to the current time.
func (d *Device) settle() {
	now := d.loop.Now()
	dt := (now - d.lastSettle).Seconds()
	d.lastSettle = now
	if dt <= 0 {
		return
	}
	for _, f := range d.flows {
		moved := f.rate * dt
		if moved > f.remaining {
			moved = f.remaining
		}
		f.remaining -= moved
		d.bytesMoved += moved
	}
}

// reschedule recomputes fair-share rates and rearms the completion timer.
// Callers must settle() first.
func (d *Device) reschedule() {
	d.timer.Cancel()
	d.timer = eventloop.Timer{}
	n := len(d.flows)
	if n == 0 {
		return
	}
	share := d.capacity / float64(n)
	soonest := -1
	var minTime float64
	for i, f := range d.flows {
		r := share
		cap := f.maxRate
		if cap == 0 {
			cap = d.perFlowCap
		}
		if cap > 0 && r > cap {
			r = cap
		}
		f.rate = r
		t := f.remaining / f.rate
		if soonest < 0 || t < minTime {
			soonest, minTime = i, t
		}
	}
	d.timer = d.loop.After(eventloop.FromSeconds(minTime), d.complete)
}

// complete fires when the soonest flow should have drained; it finishes every
// flow that is (numerically) done and reschedules the rest.
func (d *Device) complete() {
	d.timer = eventloop.Timer{}
	d.settle()
	// A flow within half a byte of done is done: FromSeconds rounds to the
	// microsecond, so exact zero is not guaranteed.
	const epsilon = 0.5
	var live []*Flow
	var finished []*Flow
	for _, f := range d.flows {
		if f.remaining <= epsilon {
			d.bytesMoved += f.remaining
			f.remaining = 0
			f.done = true
			finished = append(finished, f)
		} else {
			live = append(live, f)
		}
	}
	d.flows = live
	d.reschedule()
	for _, f := range finished {
		if f.onDone != nil {
			f.onDone()
		}
	}
}
