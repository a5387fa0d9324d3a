// Package pfair is a from-scratch Go implementation of proportionate-fair
// (Pfair) multiprocessor real-time scheduling, reproducing Srinivasan,
// Holman, Anderson, and Baruah, "The Case for Fair Multiprocessor
// Scheduling" (IPDPS 2003).
//
// It provides the PD², PD, and PF optimal Pfair schedulers (plus the naive
// EPDF baseline), the work-conserving ERfair variant, the intra-sporadic
// task model, dynamic task joins/leaves/reweighting, supertasking, and the
// partitioned-scheduling machinery the paper compares against (uniprocessor
// EDF and RM, bin-packing heuristics, and the Equation (3) overhead
// accounting).
//
// This package is a thin facade over the implementation packages under
// internal/; it re-exports the types needed for the common "schedule a
// task set and inspect the result" workflow:
//
//	s := pfair.NewScheduler(2, pfair.PD2, pfair.Options{})
//	s.Join(pfair.MustNewTask("A", 2, 3)) // cost 2, period 3 → weight 2/3
//	s.Join(pfair.MustNewTask("B", 2, 3))
//	s.Join(pfair.MustNewTask("C", 2, 3)) // Σwt = 2: infeasible for ANY partitioning
//	s.RunUntil(3000)
//	fmt.Println(len(s.Stats().Misses)) // 0 — PD² is optimal
//
// The examples/ directory contains runnable programs for the paper's
// motivating scenarios, and cmd/experiments regenerates every figure of
// its evaluation section.
package pfair

import (
	"pfair/internal/admission"
	"pfair/internal/core"
	"pfair/internal/rational"
	"pfair/internal/task"
)

// Task is a recurrent real-time task with integer cost and period.
type Task = task.Task

// Set is an ordered collection of tasks.
type Set = task.Set

// NewTask returns a periodic task with the given name, cost, and period,
// or an error unless 0 < cost ≤ period.
func NewTask(name string, cost, period int64) (*Task, error) { return task.New(name, cost, period) }

// MustNewTask is NewTask for statically known parameters (examples,
// tables); it panics on invalid ones.
func MustNewTask(name string, cost, period int64) *Task { return task.MustNew(name, cost, period) }

// Weight is an exact rational number (task weights, lags).
type Weight = rational.Rat

// Algorithm selects the Pfair priority rule.
type Algorithm = core.Algorithm

// The Pfair scheduling algorithms. PD2 is the paper's subject and the most
// efficient optimal algorithm; PD and PF are the earlier optimal
// algorithms; EPDF (earliest-pseudo-deadline-first with no tie-breaks) is
// not optimal for more than two processors.
const (
	PD2  = core.PD2
	PD   = core.PD
	PF   = core.PF
	EPDF = core.EPDF
)

// Options configures a Scheduler (ERfair eligibility, affinity).
type Options = core.Options

// Scheduler is a global Pfair/ERfair multiprocessor scheduler.
type Scheduler = core.Scheduler

// NewScheduler returns a scheduler for m processors under the given
// algorithm.
func NewScheduler(m int, alg Algorithm, opts Options) *Scheduler {
	return core.NewScheduler(m, alg, opts)
}

// Assignment records one processor allocation in one slot. Its Task is
// the task's id in join order; Scheduler.Name resolves it.
type Assignment = core.Assignment

// Miss records a subtask scheduled (or abandoned) after its window
// closed. Its Task is the task's id, as in Assignment.
type Miss = core.Miss

// Stats aggregates scheduling counters over a run.
type Stats = core.Stats

// ReleaseModel customizes subtask arrivals (the intra-sporadic model).
type ReleaseModel = core.ReleaseModel

// Pattern exposes the Pfair subtask algebra of a cost/period pair:
// windows, b-bits, group deadlines, and lags.
type Pattern = core.Pattern

// NewPattern returns the window pattern for a task with the given cost and
// period.
func NewPattern(cost, period int64) *Pattern { return core.NewPattern(cost, period) }

// Request describes one dynamic-task operation — a join, leave, or
// reweight — for a policy's Submit. Build one with Join, JoinModel,
// Leave, or Reweight and pass it to Scheduler.Submit; the same Request
// values drive the EDF, RM, WRR, and supertask simulators' Submit
// methods, so churn scripts are portable across policies.
type Request = admission.Request

// Decision records an accepted Request: the operation, the task it
// names, and the slot the transaction takes effect. Joins are
// immediate; leaves and reweights, upward or downward, wait for the
// task's Section 2 safe departure slot.
type Decision = admission.Decision

// Join builds a Request admitting t at the current slot, subject to the
// policy's feasibility test (Equation (2) for the Pfair core).
func Join(t *Task) Request { return admission.Join(t) }

// JoinModel builds a Request admitting t like Join, with its subtask
// releases shaped by model (the intra-sporadic model).
func JoinModel(t *Task, model ReleaseModel) Request { return admission.JoinModel(t, model) }

// Leave builds a Request removing the named task at its next safe slot.
func Leave(name string) Request { return admission.Leave(name) }

// Reweight builds a Request changing the named task's weight to
// newCost/newPeriod — leave-and-rejoin under the hood, with capacity
// reserved across the transition for upward reweights (Section 5.3).
func Reweight(name string, newCost, newPeriod int64) Request {
	return admission.Reweight(name, newCost, newPeriod)
}
