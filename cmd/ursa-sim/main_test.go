package main

import (
	"strings"
	"testing"
)

func TestCheckContention(t *testing.T) {
	for _, c := range []struct {
		given   string // space-separated flags named on the command line
		slowN   int
		slowFac float64
		want    string // "" passes; otherwise text the error must carry
	}{
		{"", 0, 0.5, ""},
		{"slow-machines", 5, 0.5, ""},
		{"slow-machines slow-factor", 5, 0.1, ""},
		{"slow-machines slow-factor", 5, 1, ""},

		{"slow-factor", 0, 0.1, "-slow-factor needs -slow-machines"},
		{"slow-machines slow-factor", 0, 0.1, "-slow-factor needs -slow-machines"},
		{"slow-machines slow-factor", 5, 0, "-slow-factor 0 is outside (0, 1]"},
		{"slow-machines slow-factor", 5, -0.5, "-slow-factor -0.5 is outside (0, 1]"},
		{"slow-machines slow-factor", 5, 1.5, "-slow-factor 1.5 is outside (0, 1]"},
		{"slow-machines", 21, 0.5, "-slow-machines 21 is outside [0, -machines 20]"},
		{"slow-machines", -1, 0.5, "-slow-machines -1 is outside [0, -machines 20]"},
	} {
		given := map[string]bool{}
		for _, name := range strings.Fields(c.given) {
			given[name] = true
		}
		err := checkContention(given, c.slowN, 20, c.slowFac)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%q %d %v: %v", c.given, c.slowN, c.slowFac, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%q %d %v: error %v, want %q", c.given, c.slowN, c.slowFac, err, c.want)
		}
	}
}
