package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestTallyFlagsDivergence checks the determinism cross-check every
// mode shares: a repeated request with a different answer is recorded
// under its key, a repeat with the same answer is not, and both count
// as compared; a first answer is compared with nothing.
func TestTallyFlagsDivergence(t *testing.T) {
	tl := newTally()
	tl.add("a", "1")
	tl.add("b", "2")
	if tl.compared != 0 || tl.vacuous("requests") == nil {
		t.Fatalf("first answers only: compared %d, want 0 and a vacuous verdict", tl.compared)
	}
	tl.add("a", "1")
	if len(tl.diverged) != 0 || tl.distinct() != 2 || tl.compared != 1 || tl.vacuous("requests") != nil {
		t.Fatalf("consistent answers: diverged %v, distinct %d, compared %d", tl.diverged, tl.distinct(), tl.compared)
	}
	tl.add("b", "3")
	if len(tl.diverged) != 1 || tl.diverged[0] != "b" || tl.distinct() != 2 || tl.compared != 2 {
		t.Fatalf("divergent answer: diverged %v, distinct %d, compared %d", tl.diverged, tl.distinct(), tl.compared)
	}
	var out bytes.Buffer
	if err := tl.violation(&out, "requests"); err == nil || !strings.Contains(out.String(), "DETERMINISM VIOLATION") {
		t.Fatalf("violation = %v, output %q", err, out.String())
	}
}
