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

// streamed records one stateful stream — a monitoring session or a
// validation campaign — opened and consumed to its end event.
type streamed struct {
	// configKey groups streams that must be identical: the key of the
	// server's normalized-config echo, so client-side default guessing
	// can't split a group.
	configKey string
	open      time.Duration  // POST latency
	stream    time.Duration  // first byte to end event
	counts    map[string]int // events per type
	kept      string         // the lines the pair cross-check compares
	endReason string
	err       error
}

// openAndStream POSTs req to base (/sessions or /campaigns), then reads
// the created entry's NDJSON stream to its end event. created reads the
// ID and the config key from the creation answer C; every stream line
// must decode as an E, from which event reads the type and the end
// reason; keep picks the event types whose lines the pair cross-check
// compares.
func openAndStream[C, E any](client *http.Client, addr, base string, req any,
	created func(C) (id, configKey string), event func(E) (typ, reason string), keep func(typ string) bool) streamed {
	rep, err := post(client, addr, base, req)
	if err != nil {
		return streamed{err: err}
	}
	if rep.status != http.StatusCreated {
		return streamed{err: fmt.Errorf("POST %s: status %d: %s", base, rep.status, rep.body)}
	}
	var c C
	if err := json.Unmarshal(rep.body, &c); err != nil {
		return streamed{err: err}
	}
	id, configKey := created(c)
	out := streamed{configKey: configKey, open: rep.latency, counts: make(map[string]int)}

	streamStart := time.Now()
	sresp, err := client.Get(fmt.Sprintf("%s%s/%s/stream", addr, base, id))
	if err != nil {
		out.err = err
		return out
	}
	defer sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		out.err = fmt.Errorf("GET stream: status %d", sresp.StatusCode)
		return out
	}
	var kept strings.Builder
	sc := bufio.NewScanner(sresp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		var ev E
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			out.err = fmt.Errorf("bad stream line %q: %w", sc.Bytes(), err)
			return out
		}
		typ, reason := event(ev)
		out.counts[typ]++
		if keep(typ) {
			kept.Write(sc.Bytes())
			kept.WriteByte('\n')
		}
		if typ == api.StreamEnd { // campaigns end the same way (api.CampaignEventEnd)
			out.endReason = reason
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
	out.kept = kept.String()
	return out
}

// streamTotals folds a stream workload's results into its report.
type streamTotals struct {
	opens, streams       []time.Duration
	failures, unfinished int
	counts               map[string]int
	pairs                *tally // config key -> kept lines, complete streams only
}

// foldStreams sums the streams, printing each failure as it goes, and
// cross-checks every complete stream against the first of its config.
func foldStreams(w io.Writer, noun string, results []streamed) streamTotals {
	st := streamTotals{counts: make(map[string]int), pairs: newTally()}
	for _, res := range results {
		if res.err != nil {
			st.failures++
			fmt.Fprintf(w, "%s error: %v\n", noun, res.err)
			continue
		}
		st.opens = append(st.opens, res.open)
		st.streams = append(st.streams, res.stream)
		for typ, n := range res.counts {
			st.counts[typ] += n
		}
		if res.endReason != api.SessionDone {
			// A truncated stream (deleted, evicted, drained) is a
			// lifecycle outcome, not a determinism signal; only complete
			// streams are cross-checked.
			st.unfinished++
			continue
		}
		st.pairs.add(res.configKey, res.kept)
	}
	return st
}

// runMonitor opens sessions in identical-configuration pairs,
// consumes every stream to completion with c concurrent consumers,
// and cross-checks that sessions sharing a configuration streamed
// byte-identical sample series.
func runMonitor(w io.Writer, addr, mixSpec string, sessions, steps, window, c int) error {
	if c <= 0 {
		return fmt.Errorf("-c must be positive (got %d)", c)
	}
	if sessions <= 0 {
		return fmt.Errorf("-sessions must be positive (got %d)", sessions)
	}
	if sessions%2 != 0 {
		sessions++ // pairs: every config is opened twice
	}
	configs, err := parseMix(mixSpec)
	if err != nil {
		return err
	}

	benches := []string{"loop:1000", "loop:10000", "null", "array:500"}
	jobs := make([]api.SessionRequest, sessions)
	for i := range jobs {
		pair := i / 2 // both members of a pair share everything
		m := configs[pair%len(configs)]
		m.Bench = benches[pair%len(benches)]
		m.Seed = uint64(1 + pair)
		jobs[i] = api.SessionRequest{Measure: m, Steps: steps, WindowSize: window}
	}
	client := &http.Client{} // no timeout: streams are long-lived
	results, elapsed := drive(jobs, c, func(req api.SessionRequest) streamed {
		return openAndStream(client, addr, "/sessions", req,
			func(c api.SessionCreated) (string, string) { return c.ID, c.Config.SessionKey() },
			func(ev api.StreamEvent) (string, string) { return ev.Type, ev.Reason },
			func(typ string) bool { return typ == api.StreamSample })
	})

	st := foldStreams(w, "session", results)
	fmt.Fprintf(w, "sessions:    %d (%d failed, %d ended early)\n", len(results), st.failures, st.unfinished)
	fmt.Fprintf(w, "elapsed:     %v\n", elapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "samples:     %d streamed, %d drift events\n", st.counts[api.StreamSample], st.counts[api.StreamDrift])
	fmt.Fprintf(w, "open:        %s\n", summarizeLatency(st.opens))
	fmt.Fprintf(w, "stream:      %s\n", summarizeLatency(st.streams))
	if n := len(st.pairs.diverged); n > 0 {
		fmt.Fprintf(w, "DETERMINISM VIOLATION: %d sessions streamed a different series than their pair\n", n)
		return fmt.Errorf("%d divergent session series", n)
	}
	fmt.Fprintf(w, "determinism: %d distinct configs, all paired series identical\n", st.pairs.distinct())
	if st.failures > 0 {
		return fmt.Errorf("%d sessions failed", st.failures)
	}
	return nil
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
	if campaigns%2 != 0 {
		campaigns++ // pairs: every configuration is opened twice
	}
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
	results, elapsed := drive(jobs, c, func(req api.CampaignRequest) streamed {
		return openAndStream(client, addr, "/campaigns", req,
			func(c api.CampaignCreated) (string, string) { return c.ID, c.Config.Key() },
			func(ev api.CampaignEvent) (string, string) { return ev.Type, ev.Reason },
			func(string) bool { return true })
	})

	// Nonzero findings fail the run: the server's stock models are under
	// attack and must hold.
	st := foldStreams(w, "campaign", results)
	findings := st.counts[api.CampaignEventFinding]
	fmt.Fprintf(w, "campaigns:   %d (%d failed, %d ended early)\n", len(results), st.failures, st.unfinished)
	fmt.Fprintf(w, "elapsed:     %v\n", elapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "programs:    %d swept, %d findings\n", st.counts[api.CampaignEventProgram], findings)
	fmt.Fprintf(w, "open:        %s\n", summarizeLatency(st.opens))
	fmt.Fprintf(w, "stream:      %s\n", summarizeLatency(st.streams))
	if n := len(st.pairs.diverged); n > 0 {
		fmt.Fprintf(w, "DETERMINISM VIOLATION: %d campaigns streamed different events than their pair\n", n)
		return fmt.Errorf("%d divergent campaign streams", n)
	}
	fmt.Fprintf(w, "determinism: %d distinct configs, all paired streams identical\n", st.pairs.distinct())
	if findings > 0 {
		fmt.Fprintf(w, "MODEL REFUTED: campaigns produced %d findings against the server's models\n", findings)
		return fmt.Errorf("%d campaign findings", findings)
	}
	if st.failures > 0 {
		return fmt.Errorf("%d campaigns failed", st.failures)
	}
	return nil
}
