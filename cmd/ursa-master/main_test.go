package main

import (
	"strings"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		set  string // space-separated flags given a non-default value
		want string // "" passes; otherwise both names the error must carry
	}{
		// Every recipe of README.md and the verify skill.
		{"listen workers workload jobs", ""},
		{"listen workers workload lines stats show-rows", ""},
		{"listen workers jobs stats", ""},
		{"listen workers serve policy tenant-weights", ""},
		{"listen workers journal-dir workload jobs", ""},
		{"listen workers journal-dir lease heartbeat workload jobs lines stats", ""},
		{"listen standby journal-dir", ""},
		{"listen standby heartbeat journal-dir lease", ""},
		{"listen workers serve autoscale min-workers max-workers worker-bin", ""},
		{"listen workers serve elastic autoscale min-workers max-workers autoscale-interval heartbeat worker-bin", ""},
		{"shuffle-mem-budget shuffle-spill-dir", ""},
		{"journal-dir snapshot-every", ""},
		{"serve elastic drain tenant-intake-cap", ""},

		{"min-workers max-workers", "-min-workers -autoscale"},
		{"elastic max-workers", "-max-workers -autoscale"},
		{"serve autoscale-interval", "-autoscale-interval -autoscale"},
		{"elastic worker-bin", "-worker-bin -autoscale"},
		{"lease", "-lease -journal-dir"},
		{"snapshot-every", "-snapshot-every -journal-dir"},
		{"standby", "-standby -journal-dir"},
		{"tenant-intake-cap", "-tenant-intake-cap -serve"},
		{"standby journal-dir drain", "-drain -standby"},
	} {
		set := map[string]bool{}
		for _, name := range strings.Fields(c.set) {
			set[name] = true
		}
		err := checkFlags(set)
		if c.want == "" {
			if err != nil {
				t.Errorf("%q: %v", c.set, err)
			}
			continue
		}
		for _, name := range strings.Fields(c.want) {
			if err == nil || !strings.Contains(err.Error(), name) {
				t.Errorf("%q: error %v does not name %s", c.set, err, name)
			}
		}
	}
}
