package core

import "testing"

func TestParsePolicy(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Policy
		ok   bool
	}{
		{"ejf", EJF, true},
		{"srjf", SRJF, true},
		{"EJF", EJF, true},   // what Policy.String prints
		{"SRJF", SRJF, true}, // likewise
		{"srfj", EJF, false}, // the typo that used to run EJF silently
		{"", EJF, false},
		{"fifo", EJF, false},
		{" srjf", EJF, false},
	} {
		got, err := ParsePolicy(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
}
