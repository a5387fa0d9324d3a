package main

import (
	"bytes"
	"testing"
)

// golden pins the example's full output. Every simulator it runs is
// deterministic (exact rational arithmetic, fixed tie-breaks), so
// any drift here means PD²'s intra-sporadic schedule
// changed; regenerate only after confirming the change is intentional.
const golden = `Video server: 4 jittery IS streams on 2 processors for 2000 slots.

  hd-1   weight 2/3  delivered 1112 quanta
  hd-2   weight 2/3  delivered 1112 quanta
  sd     weight 1/3  delivered  610 quanta
  audio  weight 1/5  delivered  380 quanta

Deadline misses: 0 (PD² is optimal for intra-sporadic systems).
Context switches: 2216, migrations: 229.
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
