package remote

import (
	"fmt"

	"ursa/internal/remote/agent"
)

// LocalCluster is a loopback deployment: one in-process master plus N
// in-process worker agents, all on 127.0.0.1 ephemeral ports, speaking the
// real wire protocol over real TCP. It exists for tests and the quickstart —
// the processes are goroutines, but every byte crosses a socket.
type LocalCluster struct {
	Master *Master
	Agents []*agent.Agent
}

// StartLocalCluster launches a master and n agents on loopback. The
// returned cluster is registered and ready: Submit jobs on the Master, then
// Run. agentCfg's MasterAddrs is overridden; zero values take defaults.
func StartLocalCluster(n int, cfg Config, agentCfg agent.Config) (*LocalCluster, error) {
	return StartLocalClusterFunc(n, cfg, func(int) agent.Config { return agentCfg })
}

// StartLocalClusterFunc is StartLocalCluster with a per-agent config hook —
// heterogeneous loopback clusters (mixed profiles, one artificially slowed
// agent) are built here.
func StartLocalClusterFunc(n int, cfg Config, agentCfg func(i int) agent.Config) (*LocalCluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("remote: local cluster needs at least one agent, got %d", n)
	}
	cfg.Workers = n
	m, err := NewMaster(cfg)
	if err != nil {
		return nil, err
	}
	lc := &LocalCluster{Master: m}
	for i := 0; i < n; i++ {
		ac := agentCfg(i)
		ac.MasterAddrs = []string{m.Addr()}
		a, err := agent.Dial(ac)
		if err != nil {
			lc.Close()
			return nil, fmt.Errorf("remote: starting agent %d: %w", i, err)
		}
		lc.Agents = append(lc.Agents, a)
	}
	return lc, nil
}

// Close tears the whole cluster down (abruptly; a completed Run already
// shut the agents down cleanly).
func (lc *LocalCluster) Close() {
	for _, a := range lc.Agents {
		a.Kill()
	}
	lc.Master.Close()
}
