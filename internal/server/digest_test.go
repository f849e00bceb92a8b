package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/campaign"
	"repro/internal/monitor"
)

// answerDigests pins the wire bytes of the digest matrix, one SHA-256
// per bench family. An engine or simulator change that claims to move
// no simulated statistic must leave every constant as it is; a change
// that moves statistics on purpose re-records them and says why.
var answerDigests = map[string]string{
	"array":      "829011e12466f2ee2b2a47ece20a0e4ad4e045d24d8551815bca4ac2d2b642d9",
	"gen:branch": "1bdcefab323850cfcddcce955e9b2001254967ced9a9f9276a17433c775a4eeb",
	"gen:chase":  "47447f157019bae18fadb3c95270d15f4bdc521506a5bd22ef306d0268afbe4a",
	"gen:mix":    "6a90e5a90ab0634293a565c89ebf547909c58edf16460ee4554dbca1987c8e4e",
	"gen:phase":  "3aea0e7d3b78d9fbd35c201345c16439db772536b89f7ae03568c623737687a6",
	"gen:probe":  "b37c3ee16e5d35f3f4f7aa18fe70b6b96f6834e4ff7551891fc64dba5f490ce3",
	"loop":       "ff912ced2e5886050d3b03036bd0c82e47b19ea026ba803b3148de0a078ffe25",
	"null":       "f71b189d926cff8f0aa03206cfa9e04d4a6e8b67cd7e5a2b23d77d3c4c459063",
}

// digestBenches spans the bench families: the paper's null, loop and
// array kernels at short and tick-spanning sizes, and every generated
// class, whose chase and phase programs probe the cold-fetch model.
var digestBenches = []string{
	"null", "loop:1000", "loop:10000000", "array:500", "array:100000",
	"gen:v1:mix:1:8", "gen:v1:branch:2:16", "gen:v1:chase:3:16",
	"gen:v1:phase:4:16", "gen:v1:probe:5:8", "gen:v1:chase:6:64",
}

// digestEvents rotates the counted events so the i-cache and i-TLB
// miss counters, which read the fetch state directly, are measured
// alongside instructions and cycles. Two events fit every model.
var digestEvents = [][]string{
	{"INSTR_RETIRED"},
	{"CPU_CLK_UNHALTED", "ICACHE_MISS"},
	{"ITLB_MISS", "BR_MISP_RETIRED"},
}

// benchFamily names a spec's family: null, loop, array, or gen:<class>.
func benchFamily(spec string) string {
	parts := strings.Split(spec, ":")
	if parts[0] == "gen" {
		return "gen:" + parts[2]
	}
	return parts[0]
}

// TestAnswerDigest runs a fixed matrix of /measure and /analyze bodies
// through the production handler and compares the answers, hashed per
// bench family, with recorded constants: /measure over benches ×
// models × stacks × patterns, and sampling, multiplexed and duet
// /analyze on the pc and pm stacks. Answers are byte-identical across
// engines, nodes and commits by contract, so a changed digest is a
// changed statistic somewhere in its family.
//
// The constants hold on amd64 only. On arm64, ppc64le and s390x the Go
// compiler may fuse a multiply and an add into one FMA instruction,
// which rounds once instead of twice and legitimately changes the
// accuracy models' floats in the last place.
func TestAnswerDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are recorded on amd64; %s may fuse float multiply-adds (FMA), which changes accuracy-model floats", runtime.GOARCH)
	}
	node := New(Config{
		Workers:  1,
		Monitor:  monitor.Config{SweepInterval: -1},
		Campaign: campaign.Config{SweepInterval: -1},
	})
	t.Cleanup(node.Close)
	h := node.Handler()

	digests := map[string]hash.Hash{}
	statuses := map[int]int{}
	send := func(family, path string, body any) {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b)))
		statuses[rec.Code]++
		d, ok := digests[family]
		if !ok {
			d = sha256.New()
			digests[family] = d
		}
		fmt.Fprintf(d, "%s %s %d %d\n", path, b, rec.Code, rec.Body.Len())
		d.Write(rec.Body.Bytes())
	}

	models := []string{"PD", "CD", "K8"}
	i := 0 // /measure requests sent
	n := 0 // /analyze requests sent
	for _, bench := range digestBenches {
		for _, model := range models {
			for _, stk := range []string{"pm", "pc", "PLpm", "PLpc", "PHpm", "PHpc"} {
				for _, pattern := range []string{"ar", "ao", "rr", "ro"} {
					send(benchFamily(bench), "/measure", api.MeasureRequest{
						Processor: model, Stack: stk, Bench: bench, Pattern: pattern,
						Events: digestEvents[i%len(digestEvents)], Runs: 3,
						Seed: uint64(i), Calibrate: i%2 == 0,
					})
					i++
				}
			}
		}
	}
	for _, bench := range []string{"loop:100000", "array:500", "gen:v1:branch:2:16", "gen:v1:chase:3:16", "gen:v1:phase:4:16"} {
		// A period short enough that even the short programs sample,
		// so the stepped program meets the overflow handler.
		period := int64(251)
		if bench == "loop:100000" {
			period = 10_000
		}
		for _, model := range models {
			for _, stk := range []string{"pc", "pm"} {
				m := api.MeasureRequest{Processor: model, Stack: stk, Bench: bench, Pattern: "ar", Runs: 3, Seed: 7}
				sampled := m
				sampled.Events = []string{"INSTR_RETIRED"}
				cycles := m
				cycles.Events = []string{"CPU_CLK_UNHALTED"}
				mpx := m
				mpx.Events = []string{"INSTR_RETIRED", "CPU_CLK_UNHALTED", "ICACHE_MISS", "ITLB_MISS"}
				duet := m
				duet.Pattern = "ao"
				send(benchFamily(bench), "/analyze", api.AnalyzeRequest{Items: []api.AnalyzeItem{
					{Measure: sampled, SamplingPeriod: period},
					{Measure: cycles, SamplingPeriod: 2*period + 11},
					{Measure: mpx, MpxCounters: 2},
					{Measure: m, Duet: &duet},
				}})
				n++
			}
		}
	}

	got := map[string]string{}
	families := make([]string, 0, len(digests))
	for f, d := range digests {
		got[f] = hex.EncodeToString(d.Sum(nil))
		families = append(families, f)
	}
	sort.Strings(families)
	t.Logf("%d /measure and %d /analyze requests, statuses %v", i, n, statuses)
	if statuses[http.StatusOK] < i/2 {
		t.Fatalf("only %d of the requests answered 200 (%v): the matrix no longer measures", statuses[http.StatusOK], statuses)
	}
	for _, f := range families {
		if want := answerDigests[f]; got[f] != want {
			t.Errorf("family %s: digest %s, want %s", f, got[f], want)
		}
	}
	if len(got) != len(answerDigests) {
		t.Errorf("%d families digested, %d recorded", len(got), len(answerDigests))
	}
}
