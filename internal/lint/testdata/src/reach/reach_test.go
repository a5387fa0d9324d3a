package main

import "testing"

func TestOnlyTests(t *testing.T) {
	if OnlyTests() != 8 {
		t.Fatal("OnlyTests")
	}
}
