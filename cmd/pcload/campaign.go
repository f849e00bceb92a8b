package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/api"
)

// campaignRun records one validation campaign, opened and its NDJSON
// stream consumed to the end event.
type campaignRun struct {
	// configKey groups campaigns that must stream identical bytes: the
	// key of the server's normalized-config echo, so client-side default
	// guessing can't split a pair.
	configKey string
	open      time.Duration  // POST latency
	stream    time.Duration  // first byte to end event
	counts    map[string]int // events per type
	lines     string         // the whole stream, for the pair cross-check
	endReason string
	err       error
}

// openCampaign POSTs req to /campaigns, then reads the created
// campaign's stream to its end event.
func openCampaign(client *http.Client, addr string, req api.CampaignRequest) campaignRun {
	rep, err := post(client, addr, "/campaigns", req)
	if err != nil {
		return campaignRun{err: err}
	}
	if rep.status != http.StatusCreated {
		return campaignRun{err: fmt.Errorf("POST /campaigns: status %d: %s", rep.status, rep.body)}
	}
	var created api.CampaignCreated
	if err := json.Unmarshal(rep.body, &created); err != nil {
		return campaignRun{err: err}
	}
	out := campaignRun{configKey: created.Config.Key(), open: rep.latency, counts: make(map[string]int)}

	streamStart := time.Now()
	sresp, err := client.Get(addr + "/campaigns/" + created.ID + "/stream")
	if err != nil {
		out.err = err
		return out
	}
	defer sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		out.err = fmt.Errorf("GET stream: status %d", sresp.StatusCode)
		return out
	}
	var lines strings.Builder
	sc := bufio.NewScanner(sresp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		var ev api.CampaignEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			out.err = fmt.Errorf("bad stream line %q: %w", sc.Bytes(), err)
			return out
		}
		out.counts[ev.Type]++
		lines.Write(sc.Bytes())
		lines.WriteByte('\n')
		if ev.Type == api.CampaignEventEnd {
			out.endReason = ev.Reason
		}
	}
	if err := sc.Err(); err != nil {
		out.err = err
		return out
	}
	if out.endReason == "" {
		out.err = fmt.Errorf("stream closed without an end event")
		return out
	}
	out.stream = time.Since(streamStart)
	out.lines = lines.String()
	return out
}

// runCampaign opens validation campaigns in identical-configuration
// pairs, consumes every NDJSON stream to completion with c concurrent
// consumers, and cross-checks that paired campaigns streamed
// byte-identical event series — the determinism contract extended to
// the adversarial validation layer. Any finding is a failure: the
// stock models must survive their own campaigns.
func runCampaign(w io.Writer, addr, mixSpec string, campaigns, programs, c int) error {
	if c <= 0 {
		return fmt.Errorf("-c must be positive (got %d)", c)
	}
	if campaigns <= 0 {
		return fmt.Errorf("-campaigns must be positive (got %d)", campaigns)
	}
	if programs <= 0 {
		return fmt.Errorf("-programs must be positive (got %d)", programs)
	}
	campaigns += campaigns % 2 // pairs: every configuration is opened twice
	configs, err := parseMix(mixSpec)
	if err != nil {
		return err
	}

	jobs := make([]api.CampaignRequest, campaigns)
	for i := range jobs {
		pair := i / 2 // both members of a pair share everything
		m := configs[pair%len(configs)]
		jobs[i] = api.CampaignRequest{
			Seed:       uint64(1 + pair),
			Programs:   programs,
			Processors: []string{m.Processor},
			Stack:      m.Stack,
			Runs:       4,
			Scale:      2,
			InferEvery: 2,
			PlanEvery:  4,
		}
	}
	client := &http.Client{} // no timeout: streams are long-lived
	results, elapsed := drive(jobs, c, func(req api.CampaignRequest) campaignRun {
		return openCampaign(client, addr, req)
	})

	var (
		opens, streams       []time.Duration
		failures, unfinished int
		counts               = make(map[string]int)
		pairs                = newTally() // config key -> stream, complete campaigns only
	)
	for _, res := range results {
		if res.err != nil {
			failures++
			fmt.Fprintf(w, "campaign error: %v\n", res.err)
			continue
		}
		opens = append(opens, res.open)
		streams = append(streams, res.stream)
		for typ, n := range res.counts {
			counts[typ] += n
		}
		if res.endReason != api.SessionDone {
			// A truncated stream (deleted, evicted, drained) is a
			// lifecycle outcome, not a determinism signal; only complete
			// streams are cross-checked.
			unfinished++
			continue
		}
		pairs.add(res.configKey, res.lines)
	}

	// Nonzero findings fail the run: the server's stock models are under
	// attack and must hold.
	findings, swept := counts[api.CampaignEventFinding], counts[api.CampaignEventProgram]
	fmt.Fprintf(w, "campaigns:   %d (%d failed, %d ended early)\n", len(results), failures, unfinished)
	fmt.Fprintf(w, "elapsed:     %v\n", elapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "programs:    %d swept, %d findings\n", swept, findings)
	fmt.Fprintf(w, "open:        %s\n", summarizeLatency(opens))
	fmt.Fprintf(w, "stream:      %s\n", summarizeLatency(streams))
	if err := pairs.violation(w, "campaign configurations"); err != nil {
		return err
	}
	if pairs.compared > 0 {
		fmt.Fprintf(w, "determinism: %d distinct configs, all paired streams identical\n", pairs.distinct())
	}
	if findings > 0 {
		fmt.Fprintf(w, "MODEL REFUTED: campaigns produced %d findings against the server's models\n", findings)
		return fmt.Errorf("%d campaign findings", findings)
	}
	if failures > 0 {
		return fmt.Errorf("%d campaigns failed", failures)
	}
	// A verdict over nothing passes vacuously: each check needs answers.
	if err := pairs.vacuous("campaign configurations"); err != nil {
		return err
	}
	if swept == 0 {
		return fmt.Errorf("no program was swept, so the findings check ran on nothing")
	}
	return nil
}
