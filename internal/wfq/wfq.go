// Package wfq implements the fair packet-queueing algorithms the paper's
// Section 5.3 points to as Pfair's lineage: generalized processor sharing
// (GPS, the fluid reference [32]), weighted fair queueing (WFQ [12]), and
// worst-case fair weighted fair queueing (WF²Q [7]).
//
// The correspondence with Pfair is direct. GPS is the packet world's
// ideal fluid schedule, exactly as the per-slot wt(T) allocation is
// Pfair's. WFQ serves the queued packet that would finish first under
// GPS; WF²Q additionally restricts the choice to packets whose GPS
// service has *started* (the eligibility rule). GPS start and finish
// times are the pseudo-release and pseudo-deadline of a Pfair subtask,
// and WF²Q's "smallest eligible finish time" is EPDF over those windows.
// WFQ, lacking the eligibility rule, can run a flow far ahead of its
// fluid service and then starve it — the packet-world analogue of why
// Pfair windows constrain when a subtask may run, not just its deadline.
// The tests quantify this with the burst scenario from the WF²Q paper.
//
// The link has rate 1: real time advances by packet lengths, so packet
// departures are exact integers. The GPS fluid reference is simulated in
// exact rational arithmetic (GPS event times are rationals with
// denominators dividing products of backlogged-weight sums), so packet
// selection never hinges on a float comparison; the float64 GPS times
// returned by GPSTimes are a reporting bridge over the exact reference.
package wfq

import (
	"fmt"
	"sort"

	"pfair/internal/rational"
)

// Flow is a weighted traffic source.
type Flow struct {
	Name   string
	Weight int64
}

// Packet is one arrival. Packets of a flow are served FIFO.
type Packet struct {
	Flow    string
	Arrival int64
	Length  int64
}

// Departure reports one packet's service under a packet policy.
type Departure struct {
	Packet int // index into the input slice
	Start  int64
	Finish int64
}

// Policy selects the packet-scheduling rule.
type Policy int

const (
	// WFQ serves, among queued packets, the one with the smallest GPS
	// finish time.
	WFQ Policy = iota
	// WF2Q serves the smallest GPS finish time among ELIGIBLE packets —
	// those whose GPS service has begun.
	WF2Q
)

func (p Policy) String() string {
	if p == WFQ {
		return "WFQ"
	}
	return "WF2Q"
}

// validate checks flows and packets.
func validate(flows []Flow, packets []Packet) (map[string]int64, error) {
	ws := map[string]int64{}
	for _, f := range flows {
		if f.Weight <= 0 {
			return nil, fmt.Errorf("wfq: flow %q has non-positive weight", f.Name)
		}
		if _, dup := ws[f.Name]; dup {
			return nil, fmt.Errorf("wfq: duplicate flow %q", f.Name)
		}
		ws[f.Name] = f.Weight
	}
	for i, p := range packets {
		if _, ok := ws[p.Flow]; !ok {
			return nil, fmt.Errorf("wfq: packet %d references unknown flow %q", i, p.Flow)
		}
		if p.Length <= 0 || p.Arrival < 0 {
			return nil, fmt.Errorf("wfq: packet %d has invalid parameters", i)
		}
	}
	return ws, nil
}

// gpsTimes simulates the fluid GPS reference at unit rate in exact
// rational arithmetic and returns each packet's GPS service start and
// finish times. A packet starts in GPS when it reaches the head of its
// flow's FIFO queue. Flows are always visited in their declaration
// order, so the event sequence is a pure function of the inputs.
func gpsTimes(flows []Flow, packets []Packet) (starts, finishes []*rational.Acc, err error) {
	ws, err := validate(flows, packets)
	if err != nil {
		return nil, nil, err
	}
	type fp struct {
		idx     int
		rem     *rational.Acc
		started bool
	}
	names := make([]string, len(flows))
	for i, f := range flows {
		names[i] = f.Name
	}
	order := arrivalOrder(packets)
	starts = make([]*rational.Acc, len(packets))
	finishes = make([]*rational.Acc, len(packets))
	queue := map[string][]*fp{}
	now := rational.NewAcc()
	next := 0
	markHeads := func() {
		for _, name := range names {
			if q := queue[name]; len(q) > 0 && !q[0].started {
				q[0].started = true
				starts[q[0].idx] = now.Clone()
			}
		}
	}
	admit := func() {
		for next < len(order) && now.CmpInt(packets[order[next]].Arrival) >= 0 {
			i := order[next]
			queue[packets[i].Flow] = append(queue[packets[i].Flow],
				&fp{idx: i, rem: rational.NewAcc().SetInt(packets[i].Length)})
			next++
		}
	}
	for {
		var bw int64
		for _, name := range names {
			if len(queue[name]) > 0 {
				bw += ws[name]
			}
		}
		if bw == 0 {
			if next >= len(order) {
				break
			}
			if t := packets[order[next]].Arrival; now.CmpInt(t) < 0 {
				now.SetInt(t)
			}
			admit()
			markHeads()
			continue
		}
		// Next event: earliest head completion at current rates, or the
		// next arrival. The head of flow f drains at rate w_f/bw, so it
		// completes after dt = rem·bw/w_f.
		var eventDT *rational.Acc
		for _, name := range names {
			q := queue[name]
			if len(q) == 0 {
				continue
			}
			dt := q[0].rem.Clone().MulRat(rational.New(bw, ws[name]))
			if eventDT == nil || dt.CmpAcc(eventDT) < 0 {
				eventDT = dt
			}
		}
		if next < len(order) {
			dt := rational.NewAcc().SetInt(packets[order[next]].Arrival).SubAcc(now)
			if dt.CmpAcc(eventDT) < 0 {
				eventDT = dt
			}
		}
		for _, name := range names {
			q := queue[name]
			if len(q) == 0 {
				continue
			}
			q[0].rem.SubAcc(eventDT.Clone().MulRat(rational.New(ws[name], bw)))
		}
		now.AddAcc(eventDT)
		for _, name := range names {
			q := queue[name]
			for len(q) > 0 && q[0].rem.Sign() <= 0 {
				finishes[q[0].idx] = now.Clone()
				q = q[1:]
			}
			queue[name] = q
		}
		admit()
		markHeads()
	}
	return starts, finishes, nil
}

// GPSTimes returns each packet's GPS service start and finish times as
// float64 for reporting and plotting. The underlying simulation is
// exact; only this boundary rounds.
func GPSTimes(flows []Flow, packets []Packet) (starts, finishes []float64, err error) {
	s, f, err := gpsTimes(flows, packets)
	if err != nil {
		return nil, nil, err
	}
	starts = make([]float64, len(s))
	finishes = make([]float64, len(f))
	for i := range s {
		//pfair:allowfloat reporting bridge: rounds the exact GPS reference for human-facing output
		starts[i], finishes[i] = s[i].Float(), f[i].Float()
	}
	return starts, finishes, nil
}

// GPSFinishTimes returns only the fluid completion times.
//
//pfair:keep oracle: the fluid GPS finish times the WFQ and WF²Q finish bounds are tested against
func GPSFinishTimes(flows []Flow, packets []Packet) ([]float64, error) {
	_, fin, err := GPSTimes(flows, packets)
	return fin, err
}

func arrivalOrder(packets []Packet) []int {
	order := make([]int, len(packets))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return packets[order[a]].Arrival < packets[order[b]].Arrival
	})
	return order
}

// Schedule serves the packets at unit rate under the given policy and
// returns departures in service order. Selection uses the exact GPS
// reference times, per the original WFQ/WF²Q definitions: WFQ picks the
// queued packet with the smallest GPS finish; WF²Q restricts to packets
// whose GPS start is at or before the current time. With exact
// arithmetic the WF²Q eligibility theorem guarantees the eligible set is
// never empty while packets are queued, but the selection still prefers
// eligible packets rather than assuming it, so the scheduler is
// work-conserving by construction.
func Schedule(flows []Flow, packets []Packet, pol Policy) ([]Departure, error) {
	starts, finishes, err := gpsTimes(flows, packets)
	if err != nil {
		return nil, err
	}
	order := arrivalOrder(packets)
	next := 0
	queued := map[int]bool{}
	now := int64(0)
	var out []Departure
	for next < len(order) || len(queued) > 0 {
		if len(queued) == 0 {
			if t := packets[order[next]].Arrival; t > now {
				now = t
			}
		}
		for next < len(order) && packets[order[next]].Arrival <= now {
			queued[order[next]] = true
			next++
		}
		best := -1
		bestEligible := false
		//pfair:orderinvariant argmin under less, a strict total order (index tiebreak), is unique
		for idx := range queued {
			eligible := pol == WFQ || starts[idx].CmpInt(now) <= 0
			switch {
			case best < 0,
				eligible && !bestEligible,
				eligible == bestEligible && less(finishes, starts, idx, best):
				best = idx
				bestEligible = eligible
			}
		}
		p := packets[best]
		start := now
		finish := start + p.Length
		out = append(out, Departure{Packet: best, Start: start, Finish: finish})
		delete(queued, best)
		now = finish
	}
	return out, nil
}

// less orders packets by (GPS finish, GPS start, index), exactly.
func less(finishes, starts []*rational.Acc, a, b int) bool {
	if c := finishes[a].CmpAcc(finishes[b]); c != 0 {
		return c < 0
	}
	if c := starts[a].CmpAcc(starts[b]); c != 0 {
		return c < 0
	}
	return a < b
}
