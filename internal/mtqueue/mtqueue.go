// Package mtqueue is a worker's distributed monotask queues (§4.2.3): one
// queue per resource kind, ordered by job priority and monotask size, with
// per-kind concurrency limits and the small-monotask bypass. The simulated
// worker (core.Worker) drives Queues itself; Runner runs placed tasks
// through them for both real executors, the worker agent (remote/agent) and
// the in-process one (live).
package mtqueue

import (
	"fmt"

	"ursa/internal/resource"
)

// sortKey is a queued monotask's ordering snapshot, taken at enqueue: the
// job's priority (EJF/SRJF), the job and stage it belongs to, its size
// (input bytes) and the enqueue sequence number that breaks ties.
type sortKey struct {
	Prio  float64
	Job   int64
	Stage int
	Size  float64
	Seq   uint64
}

type entry[T any] struct {
	key sortKey
	v   T
}

// queue orders one resource's monotasks per §4.2.3: by job priority, then —
// within the same job and stage — CPU monotasks by descending size (large
// tasks start earlier to shorten the stage) and network/disk monotasks by
// ascending size (make dependents ready earlier), then in enqueue order.
// fifo makes it enqueue order alone (Table 6's MO ablation). It is a binary
// heap over values that sifts exactly as container/heap does — the order
// is not a strict total order, so the sift order decides pops, and the
// simulator's schedules depend on it — without boxing an item.
type queue[T any] struct {
	desc  bool // sizes descending: the CPU queue
	fifo  bool
	items []entry[T]
}

func (q *queue[T]) push(k sortKey, v T) {
	q.items = append(q.items, entry[T]{k, v})
	q.up(len(q.items) - 1)
}

// pop removes and returns the first monotask in queue order. The queue must
// not be empty.
func (q *queue[T]) pop() T {
	n := len(q.items) - 1
	q.items[0], q.items[n] = q.items[n], q.items[0]
	q.down(0, n)
	v := q.items[n].v
	q.items[n] = entry[T]{}
	q.items = q.items[:n]
	return v
}

func (q *queue[T]) clear() {
	clear(q.items)
	q.items = q.items[:0]
}

func (q *queue[T]) less(i, j int) bool {
	a, b := &q.items[i].key, &q.items[j].key
	if q.fifo {
		return a.Seq < b.Seq
	}
	if a.Prio != b.Prio {
		return a.Prio > b.Prio // higher priority job first
	}
	if a.Job == b.Job && a.Stage == b.Stage && a.Size != b.Size {
		if q.desc {
			return a.Size > b.Size
		}
		return a.Size < b.Size
	}
	return a.Seq < b.Seq
}

func (q *queue[T]) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !q.less(j, i) {
			break
		}
		q.items[i], q.items[j] = q.items[j], q.items[i]
		j = i
	}
}

func (q *queue[T]) down(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && q.less(j2, j1) {
			j = j2
		}
		if !q.less(j, i) {
			break
		}
		q.items[i], q.items[j] = q.items[j], q.items[i]
		i = j
	}
}

// Limits are a worker's per-kind concurrency limits (§4.2.3): all cores for
// CPU, a small constant for network, one per disk; and the bypass threshold:
// a network monotask smaller than Small skips its queue and its limit.
type Limits struct {
	Cores int
	Net   int
	Small float64
	// FIFO disables the §4.2.3 order (core.Config.DisableMonotaskOrdering).
	FIFO bool
}

// Of returns the concurrency limit of kind k.
func (l Limits) Of(k resource.Kind) int {
	switch k {
	case resource.CPU:
		return l.Cores
	case resource.Net:
		return l.Net
	default:
		return 1
	}
}

// Queues is one worker's three queues, indexed by resource.CPU/Net/Disk,
// with the count of monotasks each kind runs under its limit. The owner
// serializes every call.
type Queues[T any] struct {
	Limits
	q       [3]queue[T]
	running [3]int
	seq     uint64
}

// Add snapshots a ready monotask's key and queues it, unless it bypasses its
// queue: Add then reports true, and the caller starts it at once, outside
// the concurrency count (it must not call Done for it).
func (s *Queues[T]) Add(k resource.Kind, prio float64, job int64, stage int, size float64, v T) (bypass bool) {
	if !k.Valid() || k == resource.Mem {
		panic(fmt.Sprintf("mtqueue: enqueue of non-monotask kind %v", k))
	}
	s.seq++
	// Latency-sensitive small monotasks skip the queue entirely (§4.2.3).
	if k == resource.Net && size < s.Small {
		return true
	}
	q := &s.q[k]
	q.desc, q.fifo = k == resource.CPU, s.FIFO
	q.push(sortKey{Prio: prio, Job: job, Stage: stage, Size: size, Seq: s.seq}, v)
	return false
}

// Next pops the next queued monotask of kind k if one may start under k's
// limit, and counts it running until Done.
func (s *Queues[T]) Next(k resource.Kind) (v T, ok bool) {
	if len(s.q[k].items) == 0 || s.running[k] >= s.Of(k) {
		return v, false
	}
	s.running[k]++
	return s.q[k].pop(), true
}

// Done ends a monotask Next started.
func (s *Queues[T]) Done(k resource.Kind) { s.running[k]-- }

// Len returns the number of queued (not running) monotasks of kind k.
func (s *Queues[T]) Len(k resource.Kind) int { return len(s.q[k].items) }

// Reset drops everything queued and forgets what runs: a failed worker's
// queues start empty.
func (s *Queues[T]) Reset() {
	for k := range s.q {
		s.q[k].clear()
		s.running[k] = 0
	}
}
