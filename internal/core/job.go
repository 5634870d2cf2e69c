package core

import (
	"ursa/internal/dag"
	"ursa/internal/eventloop"
	"ursa/internal/resource"
)

// JobSpec describes a job to submit.
type JobSpec struct {
	Name  string
	Graph *dag.Graph
	// Tenant names the submitting tenant for weighted fair admission; the
	// empty string is the default tenant (weight 1 unless configured).
	Tenant string
	// MemEstimate is the user-specified job memory estimate M(j) (§4.2.1),
	// in bytes. Users tend to over-estimate; Ursa clamps per-task requests
	// with m2i·I(t).
	MemEstimate float64
	// M2I overrides the default memory-to-input ratio for the job.
	M2I float64
	// MemActualFactor models the job's true resident memory as a fraction
	// of its reserved memory; it drives the UE_mem metric. Defaults to 0.85.
	MemActualFactor float64
}

// JobState tracks a job through admission to completion.
type JobState int

const (
	JobQueued JobState = iota
	JobAdmitted
	JobFinished
	// JobCancelled marks a job aborted while still queued; it never held a
	// reservation and never ran. Admitted jobs cannot be cancelled.
	JobCancelled
)

// String names the state for logs and status streams.
func (st JobState) String() string {
	switch st {
	case JobQueued:
		return "queued"
	case JobAdmitted:
		return "admitted"
	case JobFinished:
		return "finished"
	case JobCancelled:
		return "cancelled"
	}
	return "unknown"
}

// Job is a submitted job instance.
type Job struct {
	ID   int
	Spec JobSpec
	Plan *dag.Plan

	State     JobState
	Submitted eventloop.Time
	Admitted  eventloop.Time
	Finished  eventloop.Time

	// remaining is R, the total remaining per-resource work, initialized
	// from the plan's estimated usage and decremented as monotasks finish
	// (§4.2.2 SRJF).
	remaining resource.Vector
	// short marks a job of less input than one core works through in a
	// scheduling interval (System.newJob): only such jobs' ready tasks
	// trigger event passes.
	short bool
	// priority is the current ordering score: larger runs first. Worker
	// queues and placement read it.
	priority float64
	// rank caches the number of admitted jobs with strictly higher
	// priority, recomputed by Scheduler.computeRanks whenever priorities
	// refresh, so the placement-order boost is O(1) per lookup instead of
	// an O(admitted) scan per pending stage per tick.
	rank int

	// reservedMem is the cluster-wide memory reservation granted at
	// admission (§4.2.2), snapshotted so completion releases exactly what
	// admission took regardless of later capacity changes.
	reservedMem float64

	// pendingIdx indexes the scheduler's pending pool entries for this job
	// by stage, so registering newly ready tasks is O(tasks).
	pendingIdx map[*dag.Stage]*PendingStage

	jm *JobManager
}

// JM returns the job's manager; nil until the job is submitted.
func (j *Job) JM() *JobManager { return j.jm }

// ReservedMem returns the cluster-wide memory reservation snapshotted at
// admission (0 before admission and after release). The control-plane event
// log records it with JobAdmitted so a replayed state carries the exact
// reservation the live scheduler granted.
func (j *Job) ReservedMem() float64 { return j.reservedMem }

// JCT returns the job completion time (finish − submit).
func (j *Job) JCT() eventloop.Duration {
	return eventloop.Duration(j.Finished - j.Submitted)
}

// Remaining returns the job's remaining per-resource work estimate R.
func (j *Job) Remaining() resource.Vector { return j.remaining }

// memActualFactor returns the configured or default true-memory fraction.
func (j *Job) memActualFactor() float64 {
	if j.Spec.MemActualFactor > 0 {
		return j.Spec.MemActualFactor
	}
	return 0.85
}

// m2i returns the job-level default memory-to-input ratio.
func (j *Job) m2i(cfgDefault float64) float64 {
	if j.Spec.M2I > 0 {
		return j.Spec.M2I
	}
	return cfgDefault
}
