// Package main seeds the reach analyzer: every root form (main, init, a
// package-level initializer, a function value, a reasoned keep), rapid
// type analysis on interface calls and on the methods the standard
// library calls, and the code no root reaches next to each.
package main

import (
	"fmt"
	"math/rand"
)

// shape is dispatched dynamically from total.
type shape interface{ area() int }

// square is instantiated in main: its area is reached through total's
// interface call.
type square struct{ side int }

func (s square) area() int { return s.side * s.side }

// circle implements shape, but no reached code creates a circle, so the
// interface call does not reach its area.
type circle struct{ r int }

func (c circle) area() int { return 3 * c.r * c.r } // want `circle\)\.area is reached by no root .*; reached code never instantiates circle`

func total(shapes []shape) int {
	sum := 0
	for _, s := range shapes {
		sum += s.area()
	}
	return sum
}

// color's String is called by fmt: red, a typed constant main prints,
// instantiates color.
type color int

const red color = 1

func (c color) String() string { return "red" }

// ghost is a Stringer on a type nothing creates.
type ghost struct{}

func (ghost) String() string { return "ghost" } // want `ghost\)\.String is reached by no root .*never instantiates ghost`

// counter is a rand.Source64 main hands to rand.New: math/rand calls
// its methods through its own interfaces.
type counter struct{ n int64 }

func (c *counter) Int63() int64   { return int64(c.Uint64() >> 1) }
func (c *counter) Uint64() uint64 { c.n++; return uint64(c.n) }
func (c *counter) Seed(s int64)   { c.n = s }

// stuck is a rand.Source nothing creates.
type stuck struct{}

func (stuck) Int63() int64 { return 0 } // want `stuck\)\.Int63 is reached by no root .*never instantiates stuck`
func (stuck) Seed(int64)   {}           // want `stuck\)\.Seed is reached by no root .*never instantiates stuck`

// table's initializer runs at program start: fromTable is reached.
var table = map[string]func() int{"t": fromTable}

func fromTable() int { return 3 }

// byValue is taken as a value in main.
func byValue() int { return 4 }

func init() { _ = initOnly() }

func initOnly() int { return 5 }

// kept survives on purpose, and keeps what it calls.
//
//pfair:keep oracle the seeded tests compare against
func kept() int { return keptCallee() }

func keptCallee() int { return 6 }

// reasonless carries a keep with no reason, which keeps nothing.
//
//pfair:keep
func reasonless() int { return 7 } // want `reasonless is reached by no root`

// OnlyTests is called from reach_test.go alone; test files are not
// roots.
func OnlyTests() int { return 8 } // want `OnlyTests is reached by no root`

// uncalled has no caller at all.
func uncalled() {} // want `uncalled is reached by no root`

func main() {
	f := byValue
	fmt.Println(total([]shape{square{2}}), red, f(), len(table), rand.New(&counter{}).Intn(9))
}
