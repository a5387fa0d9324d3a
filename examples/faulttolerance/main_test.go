package main

import (
	"bytes"
	"testing"
)

// golden pins the example's full output. Every simulator it runs is
// deterministic (exact rational arithmetic, fixed tie-breaks), so
// any drift here means the failure scenarios' shed plans
// or miss counts changed; regenerate only after confirming the change is intentional.
const golden = `Scenario 1: 2 of 4 processors fail at t=100, Σwt = 2 ≤ M−K.
  reweighted: [], misses before/critical/non-critical: 0/0/0
  → the loss was absorbed transparently, as the paper predicts.

Scenario 2: 1 of 3 processors fails under Σwt ≈ 2.08 → overload on 2.
  shed plan (new cost/period): video→1/3 
  critical misses after settling: 0, non-critical (transient): 0
  → graceful degradation: critical tasks kept their full rates.

Contrast — plain EDF at utilization 1.25 on one processor misses per task: map[flight:996 nav:748 video:999]
EDF under overload harms arbitrary tasks (Section 5.4: "EDF has been shown to perform
poorly under overload"); Pfair reweighting chooses who slows down.
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
