package main

import "testing"

// TestTallyFlagsDivergence checks the determinism cross-check every
// workload shares: a repeated request with a different answer is
// recorded under its key, a repeat with the same answer is not.
func TestTallyFlagsDivergence(t *testing.T) {
	tl := newTally()
	tl.add("a", "1")
	tl.add("a", "1")
	tl.add("b", "2")
	if len(tl.diverged) != 0 || tl.distinct() != 2 {
		t.Fatalf("consistent answers: diverged %v, distinct %d", tl.diverged, tl.distinct())
	}
	tl.add("b", "3")
	if len(tl.diverged) != 1 || tl.diverged[0] != "b" || tl.distinct() != 2 {
		t.Fatalf("divergent answer: diverged %v, distinct %d", tl.diverged, tl.distinct())
	}
}
