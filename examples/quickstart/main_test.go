package main

import (
	"bytes"
	"testing"
)

// golden pins the example's full output. Every simulator it runs is
// deterministic (exact rational arithmetic, fixed tie-breaks), so
// any drift here means PD²'s schedule, its counters or the
// partitioning bound changed; regenerate only after confirming the change is intentional.
const golden = `Total weight: 2 → 2 processors suffice for Pfair scheduling.
Exact partitioning needs 3 processors — partitioning is inherently suboptimal.

PD² schedule, first four hyperperiods (digits = processor):
   0         1 
   012345678901
A |00.11.00.11.|
B |1.00.11.00.1|
C |.11.00.11.00|

Over 3000 slots: 6000 allocations, 3001 context switches, 2998 migrations, 1000 preemptions, 0 misses.
Exact lag of A at t=3000: 0 (the Pfair invariant keeps every lag in (−1, 1)).
`

func TestGoldenOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	if buf.String() != golden {
		t.Errorf("output drifted from golden:\n--- got ---\n%s--- want ---\n%s", buf.String(), golden)
	}
}
