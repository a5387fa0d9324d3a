package overhead

import (
	"fmt"
	"math"
	"testing"

	"pfair/internal/task"
)

// fuzzPeriodQuanta are the period lengths, in quanta, that
// FuzzMinProcsMatchesReference draws from: divisors of the Figure 3 lcm,
// co-prime values whose lcms leave int64 within a few tasks, and primes
// near 2³¹ and 2³² whose products overflow at once.
var fuzzPeriodQuanta = []int64{
	1, 2, 5, 50, 100, 200, 250, 500, 1000,
	97, 89, 83, 79, 73, 71, 99991, 99989, 99971,
	1<<31 - 1, 2147483629, 4294967291,
}

// fuzzQuanta are the quantum sizes, in µs, that the fuzz target draws.
var fuzzQuanta = []int64{1, 10, 1000}

// FuzzMinProcsMatchesReference checks MinProcsPD2 and MinProcsEDFFF
// against referenceMinProcsPD2 and referenceEDFFF on arbitrary task sets.
// The leading arguments pick the quantum and the S_EDF, S_PD², C and
// cache-delay scales; tasks takes four bytes per task: a period, a cost
// as a 16-bit fraction of the period, and a cache delay.
func FuzzMinProcsMatchesReference(f *testing.F) {
	f.Add(uint8(2), uint8(1), uint8(3), uint8(5), uint8(100), []byte{3, 40, 0, 10, 8, 10, 0, 90, 6, 200, 0, 33})
	f.Add(uint8(2), uint8(2), uint8(4), uint8(5), uint8(100), []byte{9, 30, 0, 1, 10, 30, 0, 2, 11, 30, 0, 3, 12, 30, 0, 4, 13, 30, 0, 5})
	f.Add(uint8(0), uint8(0), uint8(1), uint8(0), uint8(0), []byte{18, 255, 255, 0, 19, 128, 0, 7, 20, 1, 0, 0})
	f.Add(uint8(1), uint8(3), uint8(9), uint8(9), uint8(255), []byte{15, 200, 200, 255, 16, 5, 5, 5, 17, 100, 0, 0, 0, 255, 255, 255})
	f.Fuzz(func(t *testing.T, qSel, sEDF, sPD2, ctxsw, dScale uint8, tasks []byte) {
		if len(tasks) > 4*24 {
			tasks = tasks[:4*24] // referenceEDFFF is O(n³), in math/big on co-prime periods
		}
		q := fuzzQuanta[int(qSel)%len(fuzzQuanta)]
		var set task.Set
		delays := map[string]int64{}
		for i := 0; i+4 <= len(tasks); i += 4 {
			per := q * fuzzPeriodQuanta[int(tasks[i])%len(fuzzPeriodQuanta)]
			frac := int64(tasks[i+1])<<8 | int64(tasks[i+2])
			cost := max(1, per*frac/math.MaxUint16)
			name := fmt.Sprintf("T%d", i/4)
			set = append(set, task.MustNew(name, cost, per))
			delays[name] = int64(tasks[i+3]) * int64(dScale) / 255
		}
		perProc := int64(sPD2 % 4)
		p := Params{
			Quantum:       q,
			ContextSwitch: int64(ctxsw % 16),
			SchedEDF:      int64(sEDF % 8),
			SchedPD2:      func(m, n int) int64 { return int64(sPD2%8) + perProc*int64(m-1) },
			CacheDelay:    func(t *task.Task) int64 { return delays[t.Name] },
		}
		if got, want := MinProcsPD2(set, p), referenceMinProcsPD2(set, p); !sameResult(got, want) {
			t.Fatalf("MinProcsPD2 on %v (q=%d): got %+v, reference %+v", set, q, got, want)
		}
		got := MinProcsEDFFF(set, p)
		want, _ := referenceEDFFF(set, p)
		if !sameResult(got, want) {
			t.Fatalf("MinProcsEDFFF on %v: got %+v, reference %+v", set, got, want)
		}
	})
}

// FuzzEDFFFSpillMatchesReference checks MinProcsEDFFF against
// referenceEDFFF on sets whose periods are distinct large primes, so the
// lcm of the periods leaves int64 within a few tasks and every spare
// capacity that ffTree compares has spilled to math/big. tasks takes
// three bytes per task: a period, a cost as an 8-bit fraction of the
// period, and a cache delay large enough to make maxD reject processors
// the tree offers.
func FuzzEDFFFSpillMatchesReference(f *testing.F) {
	f.Add(uint8(1), uint8(5), []byte{0, 200, 90, 1, 150, 10, 2, 100, 50, 3, 250, 0, 4, 80, 99, 5, 120, 7})
	f.Add(uint8(3), uint8(0), []byte{6, 255, 255, 7, 1, 0, 8, 128, 128, 9, 64, 200, 10, 32, 30, 11, 230, 1})
	f.Fuzz(func(t *testing.T, sEDF, ctxsw uint8, tasks []byte) {
		if len(tasks) > 3*24 {
			tasks = tasks[:3*24] // referenceEDFFF is O(n³), in math/big
		}
		var set task.Set
		delays := map[string]int64{}
		for i := 0; i+3 <= len(tasks); i += 3 {
			per := primes[int(tasks[i])%len(primes)]
			cost := max(1, per*int64(tasks[i+1])/255)
			name := fmt.Sprintf("T%d", i/3)
			set = append(set, task.MustNew(name, cost, per))
			delays[name] = int64(tasks[i+2]) * 400
		}
		p := Params{
			Quantum:       1,
			ContextSwitch: int64(ctxsw % 16),
			SchedEDF:      int64(sEDF % 8),
			SchedPD2:      func(m, n int) int64 { return 1 },
			CacheDelay:    func(t *task.Task) int64 { return delays[t.Name] },
		}
		got := MinProcsEDFFF(set, p)
		want, _ := referenceEDFFF(set, p)
		if !sameResult(got, want) {
			t.Fatalf("MinProcsEDFFF on %v: got %+v, reference %+v", set, got, want)
		}
	})
}
