package admission

import (
	"errors"
	"reflect"
	"testing"

	"pfair/internal/obs"
	"pfair/internal/rational"
	"pfair/internal/task"
)

// errText renders an error for comparison; nil renders as "".
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestAdmission covers the request model, both exact feasibility tests
// and the plane's ledger, counters and event fanout in one table: each
// row compares what the package returned with what it must return.
func TestAdmission(t *testing.T) {
	a := task.MustNew("A", 1, 3)
	third, twoThirds := rational.New(1, 3), rational.New(2, 3)
	// Σ = 1/3 + 1/3 + 1/3 + 2/3 = 5/3, summed exactly (in floating
	// point the thirds would not add up to 1).
	total := rational.NewAcc().Add(third).Add(third).Add(third).Add(twoThirds)
	// Π(uᵢ+1) = 4/3 · 3/2 = 2: exactly on the hyperbolic bound.
	onBound := task.Set{task.MustNew("H0", 1, 3), task.MustNew("H1", 1, 2)}

	// An observed plane with a full script of transactions, plus an
	// unobserved one driven the same way.
	rec := obs.NewRecorder(16)
	met := obs.NewSchedulerMetrics(nil)
	observed, bare := NewPlane(), NewPlane()
	observed.Observe(rec, met)
	refused := errors.New("refused")
	var rejected []error
	decisions := []Decision{
		{Op: OpJoin, Name: "A", EffectiveAt: 0},
		{Op: OpReweight, Name: "A", EffectiveAt: 4},
		{Op: OpLeave, Name: "A", EffectiveAt: 9},
		{Op: OpLeave, Name: "B", EffectiveAt: 9},
	}
	for _, p := range []*Plane{observed, bare} {
		for _, d := range decisions {
			p.Commit(d)
		}
		rejected = append(rejected, p.Reject(OpJoin, refused), p.Reject(OpReweight, refused))
		p.EmitJoin(0, 3, 1, 3)
		p.EmitReweight(4, 5, 2, 5)
		p.EmitLeave(9, 5, 7)
	}
	log := observed.Log()
	log[0].Name = "edited" // Log hands out a copy

	rows := []struct {
		name      string
		got, want any
	}{
		// Request.Validate, every op.
		{"join", errText(Join(a).Validate()), ""},
		{"join with model", errText(JoinModel(a, struct{}{}).Validate()), ""},
		{"join without task", errText(Request{Op: OpJoin}.Validate()), "admission: join request carries no task"},
		{"join of invalid task", errText(Join(&task.Task{Name: "Z", Cost: 4, Period: 3}).Validate()), "task Z: period 3 smaller than cost 4 (weight > 1)"},
		{"leave", errText(Leave("A").Validate()), ""},
		{"leave without name", errText(Leave("").Validate()), "admission: leave request names no task"},
		{"leave with task", errText(Request{Op: OpLeave, Name: "A", Task: a}.Validate()), "admission: leave request must not carry a task or model"},
		{"leave with model", errText(Request{Op: OpLeave, Name: "A", Model: 1}.Validate()), "admission: leave request must not carry a task or model"},
		{"reweight", errText(Reweight("A", 2, 5).Validate()), ""},
		{"reweight to weight one", errText(Reweight("A", 5, 5).Validate()), ""},
		{"reweight without name", errText(Reweight("", 1, 2).Validate()), "admission: reweight request names no task"},
		{"reweight with task", errText(Request{Op: OpReweight, Name: "A", NewCost: 1, NewPeriod: 2, Task: a}.Validate()), "admission: reweight request must not carry a task or model"},
		{"reweight with model", errText(Request{Op: OpReweight, Name: "A", NewCost: 1, NewPeriod: 2, Model: 1}.Validate()), "admission: reweight request must not carry a task or model"},
		{"reweight to zero cost", errText(Reweight("A", 0, 2).Validate()), `admission: reweight of "A" to 0/2: want 1 ≤ cost ≤ period`},
		{"reweight to zero period", errText(Reweight("A", 1, 0).Validate()), `admission: reweight of "A" to 1/0: want 1 ≤ cost ≤ period`},
		{"reweight above one", errText(Reweight("A", 3, 2).Validate()), `admission: reweight of "A" to 3/2: want 1 ≤ cost ≤ period`},
		{"unknown op", errText(Request{Op: numOps, Name: "A"}.Validate()), "admission: unknown op 3"},
		{"op names", []string{OpJoin.String(), OpLeave.String(), OpReweight.String(), Op(numOps).String()}, []string{"join", "leave", "reweight", "unknown"}},

		// Utilization: Equation (2), exact at the boundary.
		{"utilization reaching M exactly", errText(Utilization(total, third, rational.Zero(), 2)), ""},
		{"utilization at M + 1/p", errText(Utilization(total, twoThirds, rational.Zero(), 2)), "admission: utilization 7/3 would exceed the capacity 2 (Σwt ≤ 2)"},
		{"utilization with a departing weight", errText(Utilization(total, twoThirds, third, 2)), ""},
		{"utilization leaves its input alone", total.String(), "5/3"},

		// Hyperbolic: Π(uᵢ+1) ≤ 2.
		{"hyperbolic on the bound", errText(Hyperbolic(onBound, nil)), ""},
		{"hyperbolic of an empty set", errText(Hyperbolic(nil, a)), ""},
		{"hyperbolic join past the bound", errText(Hyperbolic(onBound, task.MustNew("J", 1, 9))), "admission: admitting J(1/9) fails the hyperbolic RM bound: Π(uᵢ+1) = 20/9 > 2"},
		{"hyperbolic set past the bound", errText(Hyperbolic(task.Set{task.MustNew("X", 1, 2), task.MustNew("Y", 1, 2)}, nil)), "admission: the set fails the hyperbolic RM bound: Π(uᵢ+1) = 9/4 > 2"},

		// Plane: ledger, rejects, counters and events.
		{"log in acceptance order", observed.Log(), decisions},
		{"log of an unobserved plane", bare.Log(), decisions},
		{"rejects", []int64{observed.Rejects(), bare.Rejects()}, []int64{2, 2}},
		{"reject returns its error", rejected, []error{refused, refused, refused, refused}},
		{"counters", []int64{met.Joins.Value(), met.Leaves.Value(), met.Reweights.Value(), met.AdmissionRejects.Value()}, []int64{1, 2, 1, 2}},
		{"events", rec.Events(), []obs.Event{
			{Slot: 0, Kind: obs.EvJoin, Task: 3, Proc: -1, A: 1, B: 3},
			{Slot: 4, Kind: obs.EvReweight, Task: 5, Proc: -1, A: 2, B: 5},
			{Slot: 9, Kind: obs.EvLeave, Task: 5, Proc: -1, A: 7},
		}},
		{"decision text", decisions[1].String(), "reweight A @4"},
	}
	for _, r := range rows {
		if !reflect.DeepEqual(r.got, r.want) {
			t.Errorf("%s: got %v, want %v", r.name, r.got, r.want)
		}
	}
}
