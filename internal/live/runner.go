package live

import (
	"context"

	"ursa/internal/core"
	"ursa/internal/dag"
	"ursa/internal/localrt"
)

// Runner adapts the live system to localrt.Runner, the seam the dataset API
// (and through it the mini-SQL engine) executes plans through. Each RunPlan
// call boots a fresh live System, pushes the plan through the full Ursa
// scheduler — admission under the memory reservation, Algorithm-1 placement,
// per-resource worker queues with measured-rate feedback — and blocks until
// the job finishes, when it shuts its System down. Swapping a Session from
// localrt.LocalRunner to this type is the one-line difference between "run my
// query on a goroutine pool" and "run my query through the scheduler".
type Runner struct {
	// Config shapes each per-plan System. Zero value = defaults.
	Config Config
	// Name labels submitted jobs for traces/metrics. Default "live".
	Name string
}

var _ localrt.Runner = (*Runner)(nil)

// RunPlan implements localrt.Runner.
func (r *Runner) RunPlan(plan *dag.Plan, inputs []localrt.PlanInput) (localrt.RowsFn, error) {
	sys := NewSystem(r.Config)
	name := r.Name
	if name == "" {
		name = "live"
	}
	j := sys.Submit(Submission{
		Spec: core.JobSpec{Name: name, Graph: plan.Graph}, Plan: plan, Inputs: inputs,
	})
	sys.Core.OnJobFinished = func(*core.Job) { sys.Shutdown() }
	if err := sys.Run(context.Background()); err != nil {
		return nil, err
	}
	return j.rt.Rows, nil
}
