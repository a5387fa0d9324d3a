// Command pfairtrace is the offline forensics companion to pfairsim's
// -trace output: it reads a Chrome trace-event JSON file written by
// obs.WriteChromeTrace and reconstructs the scheduling story it encodes —
// per-task accounting, the CPU×CPU migration flow, and a root-cause
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
//	-json    emit the report as JSON instead of human-readable text
//	-k N     slots of context on each side of a deadline miss (default 2)
//
// The exporter merges consecutive slots into spans and records ring
// accounting in otherData, so pfairtrace can both recover the exact
// per-slot schedule and say when it cannot: droppedEvents > 0 means the
// ring wrapped and the report describes only the retained suffix — the
// report says so instead of passing truncation off as the whole run.
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
)

func main() {
	jsonOut := flag.Bool("json", false, "emit the report as JSON")
	k := flag.Int64("k", 2, "slots of context around each deadline miss")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: pfairtrace [-json] [-k N] trace.json   (\"-\" = stdin)")
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
	td, err := parseTrace(in)
	if err != nil {
		fatal("parsing trace: %v", err)
	}
	rep, err := buildReport(td, *k)
	if err != nil {
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

// traceEvent mirrors the subset of the Chrome trace-event record the
// exporter writes; unknown fields are ignored so hand-edited or
// tool-augmented traces still load.
type traceEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	Ts    int64          `json:"ts"`
	Dur   int64          `json:"dur"`
	Pid   int64          `json:"pid"`
	Tid   int64          `json:"tid"`
	Cat   string         `json:"cat"`
	Args  map[string]any `json:"args"`
}

type traceFile struct {
	TraceEvents []traceEvent   `json:"traceEvents"`
	OtherData   map[string]any `json:"otherData"`
}

// Lane layout constants; must match obs/chrometrace.go.
const (
	pidProcs     = 0
	pidTasks     = 1
	schedulerTid = 1 << 20
)

// traceData is the reconstructed event stream plus the identity and
// accounting metadata needed to interpret it.
type traceData struct {
	events     []obs.Event
	names      map[int32]string
	procs      int
	slotMicros int64
	other      map[string]any
	total      int64 // events emitted during the run
	retained   int64 // events that survived the ring
	dropped    int64 // events lost to ring wrap
	horizon    int64 // one past the last slot seen
}

// num reads a JSON number (float64 after decoding into any) out of an
// args map; missing or non-numeric keys return 0.
func num(m map[string]any, key string) int64 {
	if v, ok := m[key].(float64); ok {
		return int64(v)
	}
	return 0
}

func str(m map[string]any, key string) string {
	s, _ := m[key].(string)
	return s
}

// parseTrace inverts obs.WriteChromeTrace: metadata events rebuild the
// id↔name maps, processor-lane spans expand back into per-slot schedule
// events, instants map back to their event kinds, and the scheduler
// decision lane yields the tie-break events. The result is sorted by
// (slot, within-slot causal order).
func parseTrace(r io.Reader) (*traceData, error) {
	var tf traceFile
	if err := json.NewDecoder(r).Decode(&tf); err != nil {
		return nil, err
	}
	td := &traceData{
		names:      map[int32]string{},
		slotMicros: 1000,
		other:      tf.OtherData,
	}
	if tf.OtherData != nil {
		if u := num(tf.OtherData, "slotMicros"); u > 0 {
			td.slotMicros = u
		}
		td.total = num(tf.OtherData, "totalEvents")
		td.retained = num(tf.OtherData, "retainedEvents")
		td.dropped = num(tf.OtherData, "droppedEvents")
	}

	ids := map[string]int32{} // task name → id
	for _, e := range tf.TraceEvents {
		if e.Phase == "M" && e.Name == "thread_name" && e.Pid == pidTasks {
			name := str(e.Args, "name")
			td.names[int32(e.Tid)] = name
			ids[name] = int32(e.Tid)
		}
	}
	unit := td.slotMicros
	maxProc := -1
	for _, e := range tf.TraceEvents {
		slot := e.Ts / unit
		switch {
		case e.Phase == "X" && e.Pid == pidProcs:
			// One span = consecutive slots of one task on one CPU, with
			// consecutive subtask indices (the exporter's merge rule).
			id, ok := ids[str(e.Args, "task")]
			if !ok {
				continue
			}
			n := e.Dur / unit
			firstSub := int64(0)
			if sub := str(e.Args, "subtasks"); sub != "" {
				fmt.Sscanf(sub, "%d-", &firstSub)
			}
			for i := int64(0); i < n; i++ {
				td.events = append(td.events, obs.Event{
					Slot: slot + i, Kind: obs.EvSchedule,
					Task: id, Proc: int32(e.Tid), A: firstSub + i,
				})
			}
			if int(e.Tid) > maxProc {
				maxProc = int(e.Tid)
			}
			if slot+n > td.horizon {
				td.horizon = slot + n
			}
		case e.Phase == "i" && e.Pid == pidTasks:
			ev := obs.Event{Slot: slot, Task: int32(e.Tid), Proc: -1}
			switch e.Name {
			case "release":
				ev.Kind, ev.A, ev.B = obs.EvRelease, num(e.Args, "subtask"), num(e.Args, "deadline")
			case "deadline-miss":
				ev.Kind, ev.A, ev.B = obs.EvMiss, num(e.Args, "subtask"), num(e.Args, "deadline")
			case "preemption":
				ev.Kind, ev.A, ev.Proc = obs.EvPreempt, num(e.Args, "subtask"), int32(num(e.Args, "proc"))
			case "migration":
				ev.Kind, ev.A, ev.B = obs.EvMigrate, num(e.Args, "from"), num(e.Args, "subtask")
				ev.Proc = int32(num(e.Args, "to"))
			case "join":
				ev.Kind, ev.A, ev.B = obs.EvJoin, num(e.Args, "cost"), num(e.Args, "period")
			case "leave":
				ev.Kind, ev.A = obs.EvLeave, num(e.Args, "allocated")
			case "reweight":
				ev.Kind, ev.A, ev.B = obs.EvReweight, num(e.Args, "cost"), num(e.Args, "period")
			case "lag-extremum":
				ev.Kind, ev.A, ev.B = obs.EvLagExtremum, num(e.Args, "num"), num(e.Args, "den")
			default:
				continue
			}
			td.events = append(td.events, ev)
			if slot+1 > td.horizon {
				td.horizon = slot + 1
			}
		case e.Phase == "i" && e.Pid == pidProcs && e.Tid == schedulerTid:
			kind := obs.EvTieBreakB
			if e.Name == obs.EvTieBreakGroup.String() {
				kind = obs.EvTieBreakGroup
			} else if e.Name != obs.EvTieBreakB.String() {
				continue
			}
			winner, wok := ids[str(e.Args, "winner")]
			loser, lok := ids[str(e.Args, "loser")]
			if !wok || !lok {
				continue
			}
			td.events = append(td.events, obs.Event{
				Slot: slot, Kind: kind,
				Task: winner, Proc: -1,
				A: int64(loser), B: num(e.Args, "deadline"),
			})
		}
	}
	td.procs = maxProc + 1

	// Restore the within-slot causal order the exporter's lane split
	// discarded: admissions and releases precede the pick, the pick's
	// tie-breaks precede the dispatch, dispatch effects precede the
	// post-slot bookkeeping.
	rank := map[obs.EventKind]int{
		obs.EvJoin: 0, obs.EvReweight: 1, obs.EvRelease: 2,
		obs.EvTieBreakB: 3, obs.EvTieBreakGroup: 3,
		obs.EvSchedule: 4, obs.EvPreempt: 5, obs.EvMigrate: 6,
		obs.EvMiss: 7, obs.EvLagExtremum: 8, obs.EvLeave: 9,
	}
	sort.SliceStable(td.events, func(i, j int) bool {
		a, b := td.events[i], td.events[j]
		if a.Slot != b.Slot {
			return a.Slot < b.Slot
		}
		return rank[a.Kind] < rank[b.Kind]
	})
	return td, nil
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

// Report is pfairtrace's output schema.
type Report struct {
	Meta       map[string]any  `json:"meta,omitempty"`
	Ring       RingReport      `json:"ring"`
	Procs      int             `json:"procs"`
	Slots      int64           `json:"slots"`
	Tasks      []obs.TaskStats `json:"tasks"`
	Migrations [][]int64       `json:"migrationMatrix"`
	Churn      *ChurnReport    `json:"churn,omitempty"`
	Misses     []MissWindow    `json:"misses"`
}

// churnReport collects the admission-plane activity, or nil when the
// trace shows only a static construction-time set.
func churnReport(td *traceData) *ChurnReport {
	c := &ChurnReport{}
	for _, e := range td.events {
		switch e.Kind {
		case obs.EvJoin:
			c.Joins++
			if e.Slot > 0 {
				c.Timeline = append(c.Timeline, narrate(td, e))
			}
		case obs.EvLeave:
			c.Leaves++
			c.Timeline = append(c.Timeline, narrate(td, e))
		case obs.EvReweight:
			c.Reweights++
			c.Timeline = append(c.Timeline, narrate(td, e))
		}
	}
	if len(c.Timeline) == 0 {
		return nil
	}
	return c
}

// buildReport replays the reconstructed stream through the same
// obs.Accounting table the live scheduler feeds, then derives the
// forensic views. It rejects traces with no schedule events — either the
// file is not a pfairsim trace or the run never dispatched anything, and
// an empty report would hide that.
func buildReport(td *traceData, k int64) (*Report, error) {
	acct := obs.NewAccounting()
	for id, name := range td.names {
		acct.SetName(id, name)
	}
	scheduled := false
	lastCPU := map[int32]int32{}
	var matrix [][]int64
	if td.procs > 0 {
		matrix = make([][]int64, td.procs)
		for i := range matrix {
			matrix[i] = make([]int64, td.procs)
		}
	}
	for _, e := range td.events {
		acct.Apply(e)
		if e.Kind == obs.EvSchedule {
			scheduled = true
			if prev, ok := lastCPU[e.Task]; ok && prev != e.Proc {
				matrix[prev][e.Proc]++
			}
			lastCPU[e.Task] = e.Proc
		}
	}
	if !scheduled {
		return nil, fmt.Errorf("trace contains no schedule events; not a pfairsim -trace file, or the run never dispatched")
	}
	acct.Finalize(td.horizon)

	rep := &Report{
		Meta:  td.other,
		Ring:  RingReport{TotalEvents: td.total, RetainedEvents: td.retained, DroppedEvents: td.dropped},
		Procs: td.procs,
		Slots: td.horizon,
		Tasks: acct.Snapshot(),

		Migrations: matrix,
		Misses:     []MissWindow{},
	}
	// Window patterns for tie reconstruction, keyed by task id, built
	// lazily from the cost/period the join events carry.
	pats := map[int32]*core.Pattern{}
	for _, e := range td.events {
		// A reweight updates the pattern in place (the in-place policies
		// emit no fresh join); core's leave-and-rejoin emits the new
		// incarnation's join first, so the overwrite is idempotent there.
		if (e.Kind == obs.EvJoin || e.Kind == obs.EvReweight) && e.A > 0 && e.B > 0 {
			pats[e.Task] = core.NewPattern(e.A, e.B)
		}
	}
	rep.Churn = churnReport(td)
	for _, e := range td.events {
		if e.Kind != obs.EvMiss {
			continue
		}
		w := MissWindow{
			Task: taskName(td, e.Task), Subtask: e.A, Deadline: e.B, Slot: e.Slot,
		}
		var rels []obs.Event
		for _, o := range td.events {
			if o.Slot >= e.Slot-k && o.Slot <= e.Slot+k {
				w.Window = append(w.Window, narrate(td, o))
				if o.Kind == obs.EvRelease {
					rels = append(rels, o)
				}
			}
		}
		w.Ties = tieNotes(td, pats, rels)
		rep.Misses = append(rep.Misses, w)
	}
	return rep, nil
}

// tieNotes groups the releases around a miss by pseudo-deadline and, for
// every deadline shared by two or more subtasks, reconstructs the PD²
// tie-break inputs from the tasks' window patterns.
func tieNotes(td *traceData, pats map[int32]*core.Pattern, rels []obs.Event) []TieNote {
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
				note.Tasks = append(note.Tasks, fmt.Sprintf("%s subtask %d", taskName(td, r.Task), r.A))
				continue
			}
			b, g := pat.BBit(r.A), pat.GroupDeadline(r.A)
			bbits[b] = true
			groups[g] = true
			note.Tasks = append(note.Tasks, fmt.Sprintf("%s subtask %d: b-bit %d, group deadline %d", taskName(td, r.Task), r.A, b, g))
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

func taskName(td *traceData, id int32) string {
	if n, ok := td.names[id]; ok {
		return n
	}
	return fmt.Sprintf("task#%d", id)
}

// narrate renders one reconstructed event as a human-readable line. The
// tie-break lines name the rule, winner, and loser — the PD² decisions a
// miss window exists to expose.
func narrate(td *traceData, e obs.Event) string {
	name := taskName(td, e.Task)
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
		return fmt.Sprintf("slot %4d: tie-break     %s beats %s at deadline %d (b-bit rule)", e.Slot, name, taskName(td, int32(e.A)), e.B)
	case obs.EvTieBreakGroup:
		return fmt.Sprintf("slot %4d: tie-break     %s beats %s at deadline %d (group-deadline rule)", e.Slot, name, taskName(td, int32(e.A)), e.B)
	case obs.EvLagExtremum:
		return fmt.Sprintf("slot %4d: lag-extremum  %s |lag| reaches %d/%d", e.Slot, name, e.A, e.B)
	}
	return fmt.Sprintf("slot %4d: %s", e.Slot, e.Kind)
}

// renderHuman writes the full forensic report as text.
func renderHuman(w io.Writer, rep *Report) error {
	alg := str(rep.Meta, "alg")
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

	fmt.Fprintf(w, "\nper-task accounting:\n")
	if err := obs.WriteTaskTable(w, rep.Tasks); err != nil {
		return err
	}

	if rep.Procs > 1 {
		fmt.Fprintf(w, "\nmigration matrix (rows = from CPU, cols = to CPU):\n      ")
		for j := 0; j < rep.Procs; j++ {
			fmt.Fprintf(w, "%6d", j)
		}
		fmt.Fprintln(w)
		for i, row := range rep.Migrations {
			fmt.Fprintf(w, "%6d", i)
			for _, v := range row {
				fmt.Fprintf(w, "%6d", v)
			}
			fmt.Fprintln(w)
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
