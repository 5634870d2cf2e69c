package elastic

import (
	"fmt"
	"os/exec"
)

// ProcessProvisioner starts workers as OS processes — the provisioner
// behind `ursa-master -serve -autoscale`: each StartWorker spawns one
// ursa-worker pointed at the master's address. The child is reaped on exit
// but otherwise unmanaged; lifecycle control flows through the drain
// protocol (DrainDone makes a worker exit), not through signals from here.
type ProcessProvisioner struct {
	// Binary is the worker executable to spawn (e.g. "ursa-worker" on
	// PATH, or an absolute path).
	Binary string
	// Args are the full worker arguments, typically -master and -quiet.
	Args []string
	// Logf receives spawn logs; nil disables logging.
	Logf func(format string, args ...any)
}

// StartWorker implements Provisioner.
func (p *ProcessProvisioner) StartWorker() error {
	cmd := exec.Command(p.Binary, p.Args...)
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("elastic: spawn %s: %w", p.Binary, err)
	}
	if p.Logf != nil {
		p.Logf("elastic: spawned worker pid %d", cmd.Process.Pid)
	}
	go cmd.Wait() // reap; the drain protocol owns the lifecycle
	return nil
}
