// Package main seeds staleannot's //pfair:keep audit: a keep needs a
// reason and a doc comment to live in, and a keep on a function a real
// root already reaches is stale. Both diagnostics are anchored at the
// function's name; the misplaced keep's at the directive itself.
package main

// oracle is reached only through its keep: live.
//
//pfair:keep oracle the tests compare against
func oracle() int { return 1 }

// used is called from main, so its keep is stale.
//
//pfair:keep seam the tests drive
func used() int { return 2 } // want `stale //pfair:keep on .*used: a root already reaches it`

// bare keeps without saying why.
//
//pfair:keep
func bare() int { return 3 } // want `//pfair:keep on bare needs a reason`

func main() {
	x := used() //pfair:keep seam // want `//pfair:keep marks whole functions`
	_ = x
}
