package journal

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzReplayTail appends n records, then damages the segment at a fuzzed
// offset: it cuts the file there, or overwrites everything from there on with
// zeros and extends the file by extra zero bytes (a file system that kept the
// segment's new length but not its data). Open must succeed, replay exactly
// the records that end before the first byte the damage changed, and take an
// Append that a reopen reads back after them. Some payloads end in zero bytes
// or are all zeros, so a record boundary does not line up with where the
// zeros begin.
func FuzzReplayTail(f *testing.F) {
	f.Add(uint8(2), uint16(1000), true, uint16(4096)) // three records, zeroed from inside one
	f.Add(uint8(8), uint16(0), false, uint16(0))
	f.Add(uint8(8), uint16(0), true, uint16(0))
	f.Add(uint8(8), uint16(7), true, uint16(3))            // inside the segment header
	f.Add(uint8(8), uint16(segHeaderLen), true, uint16(0)) // right after it
	f.Add(uint8(8), uint16(segHeaderLen+2), true, uint16(1))
	f.Add(uint8(8), uint16(segHeaderLen+3), false, uint16(0)) // inside a length
	f.Add(uint8(8), uint16(segHeaderLen+9), true, uint16(9))  // inside a payload
	f.Add(uint8(8), uint16(40), true, uint16(0))
	f.Add(uint8(8), uint16(40), false, uint16(0))
	f.Add(uint8(15), uint16(300), true, uint16(17))

	f.Fuzz(func(t *testing.T, n uint8, at uint16, zeroFill bool, extra uint16) {
		payloads := make([][]byte, int(n%16)+1)
		for i, p := range testPayloads(len(payloads)) {
			switch i % 3 {
			case 1:
				p = append(p, 0, 0)
			case 2:
				p = make([]byte, i+1)
			}
			payloads[i] = p
		}
		dir := t.TempDir()
		j, _ := mustOpen(t, dir, Options{})
		appendAll(t, j, payloads)
		j.Close()
		path := filepath.Join(dir, segName(0))
		full, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}

		cut := int(at) % (len(full) + 1)
		seg := append([]byte(nil), full[:cut]...)
		if zeroFill {
			seg = append(seg, make([]byte, len(full)-cut+int(extra%8192))...)
		}
		if err := os.WriteFile(path, seg, 0o644); err != nil {
			t.Fatal(err)
		}
		damage := cut // the first byte the damage changed
		for zeroFill && damage < len(full) && full[damage] == 0 {
			damage++
		}
		want, end := 0, segHeaderLen
		for _, p := range payloads {
			if end += recHeaderLen + len(p); end > damage {
				break
			}
			want++
		}

		j, rep, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut %d of %d (zero-fill %v): Open: %v", cut, len(full), zeroFill, err)
		}
		checkEvents(t, rep.Events, payloads[:want])
		if _, err := j.Append([]byte("post-crash")); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if err := j.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		j, rep, err = Open(dir, Options{})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer j.Close()
		checkEvents(t, rep.Events, append(payloads[:want:want], []byte("post-crash")))
	})
}
