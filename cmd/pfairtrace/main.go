// Command pfairtrace is the offline forensics companion to pfairsim's
// -trace output: it reads a Chrome trace-event JSON file written by
// obs.WriteChromeTrace, validates it with obs.ParseChrome, and
// reconstructs the scheduling story it encodes — per-task accounting,
// per-kind event counts, the CPU×CPU migration flow, and a root-cause
// window around every deadline miss, with the PD² tie-break decisions
// that shaped it narrated inline.
//
// Usage:
//
//	pfairsim -m 5 -alg epdf -slots 180 -trace run.json T0:4/9 ... T7:2/3
//	pfairtrace run.json
//
// Flags:
//
//	-json          emit the report as JSON instead of human-readable text
//	-k N           slots of context on each side of a deadline miss (default 2)
//	-require a,b   fail unless every named event (release, migration, ...) appears
//
// A file obs.ParseChrome rejects, without schedule events, or with a
// join or reweight whose cost and period are not a valid task, is an
// error. The exporter records ring accounting in otherData, so
// pfairtrace can both recover the exact per-slot schedule and say when
// it cannot: droppedEvents > 0 means the ring wrapped and the report
// describes only the retained suffix — the report says so instead of
// passing truncation off as the whole run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"pfair/internal/core"
	"pfair/internal/obs"
	"pfair/internal/task"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit the report as JSON")
	k := flag.Int64("k", 2, "slots of context around each deadline miss")
	require := flag.String("require", "", "comma-separated event names that must each appear at least once")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: pfairtrace [-json] [-k N] [-require names] trace.json   (\"-\" = stdin)")
		os.Exit(2)
	}
	in := os.Stdin
	if path := flag.Arg(0); path != "-" {
		f, err := os.Open(path)
		if err != nil {
			fatal("%v", err)
		}
		defer f.Close()
		in = f
	}
	tr, err := obs.ParseChrome(in)
	if err != nil {
		fatal("invalid trace: %v", err)
	}
	rep, err := buildReport(tr, *k)
	if err != nil {
		fatal("%v", err)
	}
	if err := checkRequired(rep, *require); err != nil {
		fatal("%v", err)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal("encoding report: %v", err)
		}
		return
	}
	if err := renderHuman(os.Stdout, rep); err != nil {
		fatal("rendering report: %v", err)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pfairtrace: "+format+"\n", args...)
	os.Exit(1)
}

// RingReport is the trace-completeness accounting.
type RingReport struct {
	TotalEvents    int64 `json:"totalEvents"`
	RetainedEvents int64 `json:"retainedEvents"`
	DroppedEvents  int64 `json:"droppedEvents"`
}

// TieNote reconstructs one deadline tie near a miss: which subtasks
// shared the deadline, their b-bits and group deadlines (computed from
// each task's Pfair window pattern), and the rule PD² would apply. For a
// PD² trace this annotates the recorded tie-break events; for an EPDF
// trace — which records none, because EPDF ignores both rules — it shows
// exactly the information the algorithm threw away.
type TieNote struct {
	Deadline int64    `json:"deadline"`
	Tasks    []string `json:"tasks"`
	Rule     string   `json:"rule"`
}

// MissWindow is the root-cause context around one deadline miss: every
// reconstructed event within ±k slots, narrated, plus the deadline ties
// in the window.
type MissWindow struct {
	Task     string    `json:"task"`
	Subtask  int64     `json:"subtask"`
	Deadline int64     `json:"deadline"`
	Slot     int64     `json:"slot"`
	Window   []string  `json:"window"`
	Ties     []TieNote `json:"ties,omitempty"`
}

// ChurnReport summarizes the trace's dynamic-task activity — the
// admission plane's join/leave/reweight transactions as they landed.
// Construction-time admissions count as joins but are not narrated;
// Timeline lists only mid-run churn, the part worth a forensic look.
type ChurnReport struct {
	Joins     int      `json:"joins"`
	Leaves    int      `json:"leaves"`
	Reweights int      `json:"reweights"`
	Timeline  []string `json:"timeline,omitempty"`
}

// Report is pfairtrace's output schema. Events counts events per kind,
// by their names in the trace (obs.ChromeName).
type Report struct {
	Meta       map[string]any  `json:"meta,omitempty"`
	Ring       RingReport      `json:"ring"`
	Procs      int             `json:"procs"`
	Slots      int64           `json:"slots"`
	Events     map[string]int  `json:"events"`
	Tasks      []obs.TaskStats `json:"tasks"`
	Migrations []Migration     `json:"migrationMatrix"`
	Churn      *ChurnReport    `json:"churn,omitempty"`
	Misses     []MissWindow    `json:"misses"`
}

// Migration is one nonzero cell of the CPU×CPU migration matrix: Count
// dispatches of a task on CPU To whose previous dispatch was on CPU From.
// The report lists only these cells, ordered by (From, To), so its size
// follows the trace's migrations rather than the square of its lanes.
type Migration struct {
	From  int32 `json:"from"`
	To    int32 `json:"to"`
	Count int64 `json:"count"`
}

// buildReport replays the parsed stream through the same obs.Accounting
// table the live scheduler feeds, then derives the forensic views. It
// rejects traces with no schedule events — either the file is not a
// pfairsim trace or the run never dispatched anything, and an empty
// report would hide that — and join or reweight events whose cost and
// period are not a valid task.
func buildReport(tr *obs.Trace, k int64) (*Report, error) {
	acct := obs.NewAccounting()
	for id, name := range tr.Names {
		acct.SetName(int32(id), name)
	}
	counts := map[string]int{}
	lastCPU := map[int32]int32{}
	flows := map[[2]int32]int64{} // (from, to) → count
	// Window patterns for tie reconstruction, by task id, from join and
	// reweight cost/period (core's leave-and-rejoin joins the new id
	// first, so its reweight overwrites idempotently).
	pats := map[int32]*core.Pattern{}
	var timeline []string // mid-run churn, narrated
	var horizon int64
	for _, e := range tr.Events {
		acct.Apply(e)
		counts[obs.ChromeName(e.Kind)]++
		horizon = max(horizon, e.Slot+1)
		switch e.Kind {
		case obs.EvSchedule:
			if prev, ok := lastCPU[e.Task]; ok && prev != e.Proc {
				flows[[2]int32{prev, e.Proc}]++
			}
			lastCPU[e.Task] = e.Proc
		case obs.EvJoin, obs.EvReweight:
			tk := task.Task{Name: tr.TaskName(e.Task), Cost: e.A, Period: e.B}
			if err := tk.Validate(); err != nil {
				return nil, fmt.Errorf("slot %d: %s event: %w", e.Slot, obs.ChromeName(e.Kind), err)
			}
			pats[e.Task] = core.NewPattern(e.A, e.B)
		}
		if e.Kind == obs.EvLeave || e.Kind == obs.EvReweight || e.Kind == obs.EvJoin && e.Slot > 0 {
			timeline = append(timeline, narrate(tr, e))
		}
	}
	if counts["schedule"] == 0 {
		return nil, fmt.Errorf("trace contains no schedule events; not a pfairsim -trace file, or the run never dispatched")
	}
	acct.Finalize(horizon)
	matrix := make([]Migration, 0, len(flows))
	for cell, n := range flows {
		matrix = append(matrix, Migration{From: cell[0], To: cell[1], Count: n})
	}
	sort.Slice(matrix, func(i, j int) bool {
		a, b := matrix[i], matrix[j]
		return a.From < b.From || a.From == b.From && a.To < b.To
	})

	rep := &Report{
		Meta:   tr.Meta,
		Ring:   RingReport{TotalEvents: tr.Total, RetainedEvents: tr.Retained, DroppedEvents: tr.Dropped},
		Procs:  tr.Procs,
		Slots:  horizon,
		Events: counts,
		Tasks:  acct.Snapshot(),

		Migrations: matrix,
		Misses:     []MissWindow{},
	}
	if len(timeline) > 0 { // not a static, construction-time set
		rep.Churn = &ChurnReport{Joins: counts["join"], Leaves: counts["leave"], Reweights: counts["reweight"], Timeline: timeline}
	}
	for _, e := range tr.Events {
		if e.Kind != obs.EvMiss {
			continue
		}
		w := MissWindow{
			Task: tr.TaskName(e.Task), Subtask: e.A, Deadline: e.B, Slot: e.Slot,
		}
		var rels []obs.Event
		for _, o := range tr.Events {
			if o.Slot >= e.Slot-k && o.Slot <= e.Slot+k {
				w.Window = append(w.Window, narrate(tr, o))
				if o.Kind == obs.EvRelease {
					rels = append(rels, o)
				}
			}
		}
		w.Ties = tieNotes(tr, pats, rels)
		rep.Misses = append(rep.Misses, w)
	}
	return rep, nil
}

// tieNotes groups the releases around a miss by pseudo-deadline and, for
// every deadline shared by two or more subtasks, reconstructs the PD²
// tie-break inputs from the tasks' window patterns.
func tieNotes(tr *obs.Trace, pats map[int32]*core.Pattern, rels []obs.Event) []TieNote {
	byDeadline := map[int64][]obs.Event{}
	for _, r := range rels {
		byDeadline[r.B] = append(byDeadline[r.B], r)
	}
	deadlines := make([]int64, 0, len(byDeadline))
	for d, group := range byDeadline {
		if len(group) >= 2 {
			deadlines = append(deadlines, d)
		}
	}
	sort.Slice(deadlines, func(i, j int) bool { return deadlines[i] < deadlines[j] })
	var notes []TieNote
	for _, d := range deadlines {
		group := byDeadline[d]
		note := TieNote{Deadline: d}
		bbits := map[int]bool{}
		groups := map[int64]bool{}
		complete := true
		for _, r := range group {
			pat := pats[r.Task]
			if pat == nil {
				complete = false
				note.Tasks = append(note.Tasks, fmt.Sprintf("%s subtask %d", tr.TaskName(r.Task), r.A))
				continue
			}
			b, g := pat.BBit(r.A), pat.GroupDeadline(r.A)
			bbits[b] = true
			groups[g] = true
			note.Tasks = append(note.Tasks, fmt.Sprintf("%s subtask %d: b-bit %d, group deadline %d", tr.TaskName(r.Task), r.A, b, g))
		}
		switch {
		case !complete:
			note.Rule = "tie-break inputs incomplete (join events missing from the trace)"
		case len(bbits) > 1:
			note.Rule = "PD² decides by b-bit (prefer 1)"
		case len(groups) > 1 && bbits[1]:
			note.Rule = "b-bits equal; PD² decides by group deadline (prefer later)"
		default:
			note.Rule = "neither PD² rule separates them; falls through to task id"
		}
		notes = append(notes, note)
	}
	return notes
}

// narrate renders one reconstructed event as a human-readable line. The
// tie-break lines name the rule, winner, and loser — the PD² decisions a
// miss window exists to expose.
func narrate(tr *obs.Trace, e obs.Event) string {
	name := tr.TaskName(e.Task)
	switch e.Kind {
	case obs.EvJoin:
		return fmt.Sprintf("slot %4d: join          %s cost %d period %d", e.Slot, name, e.A, e.B)
	case obs.EvLeave:
		return fmt.Sprintf("slot %4d: leave         %s after %d quanta", e.Slot, name, e.A)
	case obs.EvReweight:
		return fmt.Sprintf("slot %4d: reweight      %s to cost %d period %d", e.Slot, name, e.A, e.B)
	case obs.EvRelease:
		return fmt.Sprintf("slot %4d: release       %s subtask %d (deadline %d)", e.Slot, name, e.A, e.B)
	case obs.EvSchedule:
		return fmt.Sprintf("slot %4d: schedule      %s subtask %d on CPU %d", e.Slot, name, e.A, e.Proc)
	case obs.EvPreempt:
		return fmt.Sprintf("slot %4d: preempt       %s subtask %d off CPU %d", e.Slot, name, e.A, e.Proc)
	case obs.EvMigrate:
		return fmt.Sprintf("slot %4d: migrate       %s CPU %d → CPU %d (subtask %d)", e.Slot, name, e.A, e.Proc, e.B)
	case obs.EvMiss:
		return fmt.Sprintf("slot %4d: DEADLINE MISS %s subtask %d missed deadline %d", e.Slot, name, e.A, e.B)
	case obs.EvTieBreakB:
		return fmt.Sprintf("slot %4d: tie-break     %s beats %s at deadline %d (b-bit rule)", e.Slot, name, tr.TaskName(int32(e.A)), e.B)
	case obs.EvTieBreakGroup:
		return fmt.Sprintf("slot %4d: tie-break     %s beats %s at deadline %d (group-deadline rule)", e.Slot, name, tr.TaskName(int32(e.A)), e.B)
	}
	return fmt.Sprintf("slot %4d: %s", e.Slot, e.Kind)
}

// checkRequired fails unless every comma-separated event name in
// require counts at least one event in the report.
func checkRequired(rep *Report, require string) error {
	for _, name := range strings.Split(require, ",") {
		name = strings.TrimSpace(name)
		if name != "" && rep.Events[name] == 0 {
			return fmt.Errorf("required event %q never appears in the trace", name)
		}
	}
	return nil
}

// renderHuman writes the full forensic report as text.
func renderHuman(w io.Writer, rep *Report) error {
	alg, _ := rep.Meta["alg"].(string)
	if alg == "" {
		alg = "unknown algorithm"
	}
	fmt.Fprintf(w, "pfairtrace report: %s, %d processors, %d slots\n", alg, rep.Procs, rep.Slots)
	if rep.Ring.DroppedEvents > 0 {
		fmt.Fprintf(w, "WARNING: ring wrapped — %d of %d events dropped; this report covers only the retained suffix\n",
			rep.Ring.DroppedEvents, rep.Ring.TotalEvents)
	} else if rep.Ring.TotalEvents > 0 {
		fmt.Fprintf(w, "trace is complete: %d events, none dropped\n", rep.Ring.TotalEvents)
	}

	// fmt prints a map sorted by key: "events: join:3 release:45 ...".
	fmt.Fprintln(w, "events:", strings.TrimSuffix(strings.TrimPrefix(fmt.Sprint(rep.Events), "map["), "]"))

	fmt.Fprintf(w, "\nper-task accounting:\n")
	if err := obs.WriteTaskTable(w, rep.Tasks); err != nil {
		return err
	}

	if rep.Procs > 1 {
		fmt.Fprintf(w, "\nmigration matrix (nonzero cells, from CPU → to CPU):\n")
		if len(rep.Migrations) == 0 {
			fmt.Fprintln(w, "  none")
		}
		for _, m := range rep.Migrations {
			fmt.Fprintf(w, "  CPU %d → CPU %d: %d\n", m.From, m.To, m.Count)
		}
	}

	if rep.Churn != nil {
		fmt.Fprintf(w, "\ndynamic-task churn: %d joins, %d leaves, %d reweights\n",
			rep.Churn.Joins, rep.Churn.Leaves, rep.Churn.Reweights)
		for _, line := range rep.Churn.Timeline {
			fmt.Fprintln(w, " ", line)
		}
	}

	if len(rep.Misses) == 0 {
		fmt.Fprintf(w, "\nno deadline misses\n")
		return nil
	}
	fmt.Fprintf(w, "\n%d deadline miss(es):\n", len(rep.Misses))
	for i, m := range rep.Misses {
		fmt.Fprintf(w, "\nmiss %d: %s subtask %d missed deadline %d (detected slot %d)\n",
			i+1, m.Task, m.Subtask, m.Deadline, m.Slot)
		fmt.Fprintln(w, strings.Repeat("-", 60))
		for _, line := range m.Window {
			fmt.Fprintln(w, " ", line)
		}
		for _, tie := range m.Ties {
			fmt.Fprintf(w, "  deadline %d tie — %s:\n", tie.Deadline, tie.Rule)
			for _, t := range tie.Tasks {
				fmt.Fprintf(w, "    %s\n", t)
			}
		}
	}
	return nil
}
