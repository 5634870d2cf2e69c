package wire

import (
	"math/rand"
	"net"
	"time"
)

// DialFunc opens one stream connection to addr. Production code uses NetDial;
// tests compose fault injectors over it — the dial seam of the data plane.
type DialFunc func(addr string) (net.Conn, error)

// ListenFunc opens a stream listener on addr. Production code uses NetListen;
// tests compose fault injectors over it — the listen seam of the data plane.
type ListenFunc func(addr string) (net.Listener, error)

// NetDial is the production DialFunc: plain TCP.
func NetDial(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }

// NetListen is the production ListenFunc: plain TCP.
func NetListen(addr string) (net.Listener, error) { return net.Listen("tcp", addr) }

// Backoff is the jittered sleep before retry k (0-based) of a capped
// exponential backoff: uniform in [½,1) of min(base·2^k, max). Fetch retries
// and registration retries both wait this long.
func Backoff(rng *rand.Rand, base, max time.Duration, k int) time.Duration {
	d := base << uint(k)
	if d > max || d <= 0 {
		d = max
	}
	return d/2 + time.Duration(rng.Int63n(int64(d/2)))
}
