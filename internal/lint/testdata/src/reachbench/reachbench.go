// Package main seeds reach's benchmark roots: a benchmark directory,
// type-checked against this package, calls Value on a Meter and Read
// through the Gauge interface. The methods of the same names on types
// it never calls them on stay unreached.
package main

import "fmt"

// Meter's Value is what the benchmark calls.
type Meter struct{ n int }

func (m *Meter) Value() int { return m.n + bonus() }

// bonus is reached through Meter.Value alone.
func bonus() int { return 1 }

// NewMeter is the constructor the benchmark calls.
func NewMeter() *Meter { return &Meter{n: 2} }

// tally is instantiated in main and has a Value method too, but the
// benchmark never calls it on a tally.
type tally struct{ n int }

func (t *tally) Value() int { return t.n } // want `tally\)\.Value is reached by no root`

// Gauge is an interface the benchmark calls Read through.
type Gauge interface{ Read() int }

// dial implements Gauge and main creates one, so the benchmark's
// interface call reaches its Read.
type dial struct{}

func (dial) Read() int { return 3 }

// Dial returns a Gauge backed by a dial.
func Dial() Gauge { return dial{} }

func main() {
	t := &tally{n: 1}
	fmt.Println(t.n, Dial() != nil)
}
