package wire

import (
	"math/bits"
	"sync"
)

// Frame buffer pool. Buffers are size-classed by power of two so a released
// buffer serves any later frame at or below its class; classes below 512 B
// are rounded up (tiny frames share one class) and frames above 64 MiB —
// beyond DefaultMaxFrame — bypass the pool entirely. The hot paths (shuffle
// client/server, the Conn read loop) additionally *retain* their buffer
// across frames, so the pool is only touched when a frame outgrows the
// retained capacity; steady-state traffic runs without Get/Put churn at all.
const (
	minPoolClass = 9  // 512 B
	maxPoolClass = 26 // 64 MiB
)

var bufPools [maxPoolClass + 1]sync.Pool

// poolClass returns the smallest power-of-two class holding n bytes.
func poolClass(n int) int {
	c := bits.Len(uint(n - 1))
	if c < minPoolClass {
		c = minPoolClass
	}
	return c
}

// GetBuf returns a buffer of length n, reusing a pooled buffer of the next
// power-of-two class when one is available. Release it with PutBuf once no
// slice of it is referenced anymore.
func GetBuf(n int) []byte {
	if n <= 0 {
		return nil
	}
	c := poolClass(n)
	if c > maxPoolClass {
		return make([]byte, n)
	}
	if v := bufPools[c].Get(); v != nil {
		return (*v.(*[]byte))[:n]
	}
	return make([]byte, n, 1<<c)
}

// PutBuf releases a buffer for reuse by GetBuf. Only exact pool-class
// capacities are retained (anything else — e.g. an append-grown buffer — is
// simply dropped for the GC), so PutBuf is safe to call on any buffer. The
// caller must not touch b, or any slice aliasing it, afterwards.
func PutBuf(b []byte) {
	n := cap(b)
	if n == 0 {
		return
	}
	c := poolClass(n)
	if n != 1<<c || c > maxPoolClass {
		return
	}
	b = b[:n]
	bufPools[c].Put(&b)
}

// Shrink policy for long-lived reusable buffers (the Conn write pump, the
// pooled read path, the shuffle server and client loops): one giant frame
// must not pin its high-water-mark allocation for the connection's remaining
// lifetime. After shrinkRuns consecutive uses at under a quarter of the
// retained capacity, the buffer is released (to the pool when its capacity is
// a pool class) and the owner starts over right-sized.
const (
	shrinkRetain = 64 << 10 // caps at or below this are never shrunk
	shrinkRuns   = 32
)

// Shrinker tracks the small-use run of one reusable buffer.
type Shrinker struct{ small int }

// Next observes that the last use of buf covered `used` bytes and returns
// the buffer to keep for the next use — nil once a sustained run of small
// uses shows the capacity is stale. Callers must have dropped every slice
// referencing buf's contents (the previous frame/message) before calling.
func (s *Shrinker) Next(buf []byte, used int) []byte {
	if cap(buf) <= shrinkRetain || used > cap(buf)/4 {
		s.small = 0
		return buf
	}
	s.small++
	if s.small < shrinkRuns {
		return buf
	}
	s.small = 0
	PutBuf(buf)
	return nil
}
