package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"slices"
	"sync"
	"time"
)

// drive fires every job through c concurrent workers and returns the
// results, in completion order, with the wall-clock time the batch
// took. It is the one worker pool behind every workload; each workload
// brings its own jobs and its own fire, which makes the request and
// checks the answer.
func drive[J, R any](jobs []J, c int, fire func(J) R) ([]R, time.Duration) {
	work := make(chan J)
	results := make(chan R, len(jobs))
	var wg sync.WaitGroup
	for i := 0; i < c; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range work {
				results <- fire(job)
			}
		}()
	}
	start := time.Now()
	for _, job := range jobs {
		work <- job
	}
	close(work)
	wg.Wait()
	elapsed := time.Since(start)
	close(results)
	out := make([]R, 0, len(jobs))
	for res := range results {
		out = append(out, res)
	}
	return out, elapsed
}

// reply is one POST as the client saw it.
type reply struct {
	sent    []byte // the marshaled request body
	status  int
	header  http.Header
	body    []byte
	latency time.Duration // send to the last body byte
}

// post marshals payload, POSTs it to addr+path as JSON, and reads the
// whole answer. On a transport or read error the reply holds what was
// captured before it.
func post(client *http.Client, addr, path string, payload any) (reply, error) {
	sent, err := json.Marshal(payload)
	if err != nil {
		return reply{}, err
	}
	start := time.Now()
	resp, err := client.Post(addr+path, "application/json", bytes.NewReader(sent))
	if err != nil {
		return reply{sent: sent}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return reply{
		sent:    sent,
		status:  resp.StatusCode,
		header:  resp.Header,
		body:    body,
		latency: time.Since(start),
	}, err
}

// postOK is post for checks that need a 200: any other status is an
// error naming the path and quoting the body.
func postOK(client *http.Client, addr, path string, payload any) (reply, error) {
	rep, err := post(client, addr, path, payload)
	if err == nil && rep.status != http.StatusOK {
		err = fmt.Errorf("%s: status %d: %s", path, rep.status, rep.body)
	}
	return rep, err
}

// tally is the determinism cross-check: the same request must get the
// same answer. It keeps the first answer per request key and records
// every later answer that differs.
type tally struct {
	first    map[string]string
	diverged []string // keys whose answer differed from the first
}

func newTally() *tally { return &tally{first: make(map[string]string)} }

// add records one answer to the request identified by key.
func (t *tally) add(key, answer string) {
	if prev, ok := t.first[key]; ok && prev != answer {
		t.diverged = append(t.diverged, key)
	} else {
		t.first[key] = answer
	}
}

// distinct returns how many distinct requests were seen.
func (t *tally) distinct() int { return len(t.first) }

// checkCounts validates the flags every request workload shares: a
// positive worker count and a non-negative request count.
func checkCounts(c int, name string, n int) error {
	if c <= 0 {
		return fmt.Errorf("-c must be positive (got %d)", c)
	}
	if n < 0 {
		return fmt.Errorf("%s must be non-negative (got %d)", name, n)
	}
	return nil
}

// reportHead prints the lines a request workload's summary opens with:
// the count and failures, the elapsed time, the throughput, and the
// pooled latency percentiles of the successful requests.
func reportHead(w io.Writer, noun, unit string, total, failures int, elapsed time.Duration, ok []time.Duration) {
	fmt.Fprintf(w, "%-13s%d (%d failed)\n", noun+":", total, failures)
	fmt.Fprintf(w, "elapsed:     %v\n", elapsed.Round(time.Millisecond))
	if len(ok) > 0 && elapsed > 0 {
		fmt.Fprintf(w, "throughput:  %.1f %s/s\n", float64(len(ok))/elapsed.Seconds(), unit)
	}
	fmt.Fprintf(w, "latency:     %s\n", summarizeLatency(ok))
}

// reportEndpoints prints one latency line per endpoint, in path order,
// so a workload that pools endpoints of very different costs does not
// let one hide another.
func reportEndpoints(w io.Writer, byEndpoint map[string][]time.Duration, note string) {
	for _, ep := range slices.Sorted(maps.Keys(byEndpoint)) {
		fmt.Fprintf(w, "  %-10s %s (n=%d%s)\n", ep+":", summarizeLatency(byEndpoint[ep]), len(byEndpoint[ep]), note)
	}
}
