package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// newClient returns the load client: at most conns connections per
// host, no proxy, no compression.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			Proxy:               nil,
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
		Timeout: time.Minute,
	}
}

// answer is what the benchmark keeps of one operation's response.
type answer struct {
	// hash identifies the body (for a session, its NDJSON stream).
	hash uint64
	body []byte
	// backend is the node pcfront routed the operation to, when sent
	// through pcfront.
	backend string
}

// do is one HTTP exchange: it returns the body and headers of a
// response with the wanted status, and an error for any other.
type do func(method, path string, body []byte, want int) ([]byte, http.Header, error)

// send issues one operation against base.
func send(c *http.Client, base string, o op) (answer, error) {
	return exchange(o, func(method, path string, body []byte, want int) ([]byte, http.Header, error) {
		req, err := http.NewRequest(method, base+path, bytes.NewReader(body))
		if err != nil {
			return nil, nil, err
		}
		resp, err := c.Do(req)
		if err != nil {
			return nil, nil, err
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, nil, fmt.Errorf("%s %s: %w", method, path, err)
		}
		if resp.StatusCode != want {
			return nil, nil, fmt.Errorf("%s %s: status %d: %.200s", method, path, resp.StatusCode, out)
		}
		return out, resp.Header, nil
	})
}

// exchange performs one operation over an HTTP exchange function: a
// POST, and for a session the stream read that follows it.
func exchange(o op, call do) (answer, error) {
	want := http.StatusOK
	if o.kind == kindSession {
		want = http.StatusCreated
	}
	body, hdr, err := call(http.MethodPost, o.kind.path(), o.body, want)
	if err != nil {
		return answer{}, err
	}
	a := answer{backend: hdr.Get("X-Pcfront-Backend")}
	if o.kind == kindSession {
		var created struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(body, &created); err != nil || created.ID == "" {
			return answer{}, fmt.Errorf("POST /sessions: no session id in %q", body)
		}
		if body, _, err = call(http.MethodGet, "/sessions/"+created.ID+"/stream", nil, http.StatusOK); err != nil {
			return answer{}, err
		}
		if !bytes.HasSuffix(body, []byte(`{"type":"end","reason":"done"}`+"\n")) {
			return answer{}, fmt.Errorf("session %s: stream did not end done", created.ID)
		}
	}
	h := fnv.New64a()
	h.Write(body)
	a.hash, a.body = h.Sum64(), body
	return a, nil
}

// recorder keeps every answer of the timed phases, by operation index,
// for the correctness gate, and checks repeated bodies as they arrive.
type recorder struct {
	mu       sync.Mutex
	hashes   map[int]uint64
	hot      map[int]uint64
	failures int64
	first    []string // the first few failure messages
}

func newRecorder() *recorder {
	return &recorder{hashes: make(map[int]uint64), hot: make(map[int]uint64)}
}

// fail counts one failed operation.
func (r *recorder) fail(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failures++
	if len(r.first) < 5 {
		r.first = append(r.first, err.Error())
	}
}

// record stores operation i's outcome and reports whether it succeeded.
// A repeated body whose answer differs from its first answer fails.
func (r *recorder) record(i int, o op, h uint64, err error) bool {
	if err == nil && o.hot >= 0 {
		r.mu.Lock()
		prev, seen := r.hot[o.hot]
		if !seen {
			r.hot[o.hot] = h
		}
		r.mu.Unlock()
		if seen && prev != h {
			err = fmt.Errorf("hot body %d: answer differs from its first answer", o.hot)
		}
	}
	if err != nil {
		r.fail(err)
		return false
	}
	r.mu.Lock()
	r.hashes[i] = h
	r.mu.Unlock()
	return true
}

// phase counts one phase's operations.
type phase struct {
	sent, ok, failed int64
}

func (p phase) String() string {
	return fmt.Sprintf("sent %d  succeeded %d  failed %d", p.sent, p.ok, p.failed)
}

// closedLoop runs clients that each send their next operation after
// the previous answer, for d, starting at stream index first. It
// returns the completion time of every success.
func closedLoop(c *http.Client, base string, w *workload, seed uint64, first int, d time.Duration, clients int, rec *recorder) (phase, []sample) {
	var (
		next  atomic.Int64
		mu    sync.Mutex
		done  []sample
		p     phase
		wg    sync.WaitGroup
		start = time.Now()
	)
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			var sent, ok int64
			for time.Since(start) < d {
				i := first + int(next.Add(1)-1)
				o := w.op(seed, i)
				a, err := send(c, base, o)
				sent++
				if rec.record(i, o, a.hash, err) {
					ok++
					mine = append(mine, sample{at: time.Since(start), value: 1})
				}
			}
			mu.Lock()
			done = append(done, mine...)
			p.sent += sent
			p.ok += ok
			mu.Unlock()
		}()
	}
	wg.Wait()
	p.failed = p.sent - p.ok
	return p, done
}

// arrivals returns Poisson arrival offsets at rate per second over d,
// drawn from the seed.
func arrivals(seed uint64, rate float64, d time.Duration) []time.Duration {
	r := newRNG(seed, domainOpen)
	var due []time.Duration
	t := 0.0
	for {
		t += -math.Log(1-r.float()) / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return due
		}
		due = append(due, at)
	}
}

// openLoop sends operations on a Poisson schedule at the workload's
// rate for d, from clients senders, starting at stream index first.
// Latency is timed from each operation's due time, so a stall also
// delays the operations queued behind it; lag is how late the sender
// started each operation.
func openLoop(c *http.Client, base string, w *workload, seed uint64, first int, d time.Duration, clients int, rec *recorder) (p phase, latency, lag []sample) {
	due := arrivals(seed, w.rate, d)
	var (
		next  atomic.Int64
		mu    sync.Mutex
		wg    sync.WaitGroup
		start = time.Now()
	)
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat, lags []sample
			for {
				k := int(next.Add(1) - 1)
				if k >= len(due) {
					break
				}
				if wait := due[k] - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				sentAt := time.Since(start)
				i := first + k
				o := w.op(seed, i)
				a, err := send(c, base, o)
				lags = append(lags, sample{at: due[k], value: ms(sentAt - due[k])})
				if rec.record(i, o, a.hash, err) {
					lat = append(lat, sample{at: due[k], value: ms(time.Since(start) - due[k])})
				}
			}
			mu.Lock()
			latency = append(latency, lat...)
			lag = append(lag, lags...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	p.sent = int64(len(due))
	p.ok = int64(len(latency))
	p.failed = p.sent - p.ok
	return p, latency, lag
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func values(s []sample) []float64 {
	v := make([]float64, len(s))
	for i, x := range s {
		v[i] = x.value
	}
	return v
}
