// Command bench stands in for the benchmark: reach type-checks it
// against the reachbench package it imports. crypto/sha256 is in no
// loaded package's dependencies, so its export data is listed for the
// benchmark alone.
package main

import (
	"crypto/sha256"
	"fmt"

	rb "pfair/internal/lint/testdata/src/reachbench"
)

func main() {
	var g rb.Gauge = rb.Dial()
	fmt.Println(rb.NewMeter().Value(), g.Read(), sha256.Size)
}
