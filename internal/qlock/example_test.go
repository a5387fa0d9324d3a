package qlock_test

import (
	"fmt"

	"pfair/internal/qlock"
)

// ExampleRetryBound gives the lock-free retry bound on a four-processor
// system where each processor commits at most one interfering operation
// per window.
func ExampleRetryBound() {
	fmt.Println(qlock.RetryBound(4, 1))
	// Output:
	// 4
}
