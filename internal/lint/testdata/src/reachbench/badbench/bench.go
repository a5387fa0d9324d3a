// Command bench names a function the reachbench package does not
// declare, so it does not type-check.
package main

import rb "pfair/internal/lint/testdata/src/reachbench"

func main() { rb.Missing() }
