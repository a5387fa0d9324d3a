package main

import (
	"bytes"
	"testing"
)

// golden pins the example's full output. Every simulator it runs is
// deterministic (exact rational arithmetic, fixed tie-breaks), so
// any drift here means EDF, its CBS or PD² changed how the
// flood is absorbed; regenerate only after confirming the change is intentional.
const golden = `EDF, no isolation:   misses per task = map[audio:398 control:798 net-rx:400]
EDF + CBS:           misses per task = map[net-rx:400] (handler deadline postponements: 599)
PD²:                 misses = 0; net-rx received 800/4000 ms — exactly its 2/10 share

Fairness provides temporal isolation by construction; EDF needs an
added mechanism (CBS) to get the same guarantee.
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
