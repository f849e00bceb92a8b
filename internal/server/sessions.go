package server

import (
	"errors"
	"net/http"
	"time"

	"repro/internal/lifecycle"
)

// streamEntry is what the stream routes need of a registered entry —
// a monitoring session or a validation campaign: the lifecycle
// registry's view of it, its snapshot, and its replay-then-follow
// event log (both delegate to internal/evlog).
type streamEntry[Snap any] interface {
	lifecycle.Entry
	eventSource
	Snapshot() Snap
}

// registerStreamRoutes wires one stateful streaming resource under
// base. Monitoring sessions and validation campaigns both serve
// through it:
//
//	POST   /sessions              api.SessionRequest -> api.SessionCreated
//	GET    /sessions/{id}         -> api.SessionSnapshot
//	GET    /sessions/{id}/stream  -> NDJSON api.StreamEvent lines
//	DELETE /sessions/{id}         -> 204
//	POST   /campaigns             api.CampaignRequest -> api.CampaignCreated
//	GET    /campaigns/{id}        -> api.CampaignSnapshot
//	GET    /campaigns/{id}/stream -> NDJSON api.CampaignEvent lines
//	DELETE /campaigns/{id}        -> 204
//
// Errors map from the registry's sentinels: unknown IDs are 404, and
// the active bound and shutdown are 503 (retryable elsewhere or
// later); anything else, bad requests included, takes statusFor.
func registerStreamRoutes[Req, Created, Snap any, E streamEntry[Snap]](mux router, base string, reg *lifecycle.Registry[E], open func(*http.Request, Req) (Created, error)) {
	errs := reg.Errors()
	status := func(err error) int {
		switch {
		case errors.Is(err, errs.NotFound):
			return http.StatusNotFound
		case errors.Is(err, errs.TooMany), errors.Is(err, errs.Closed):
			return http.StatusServiceUnavailable
		}
		return statusFor(err)
	}
	// withEntry resolves {id} or answers the lookup error.
	withEntry := func(serve func(http.ResponseWriter, *http.Request, E)) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			e, err := reg.Get(r.PathValue("id"))
			if err != nil {
				writeError(w, status(err), err)
				return
			}
			serve(w, r, e)
		}
	}

	mux.HandleFunc("POST "+base, handleJSON(status, http.StatusCreated, open))
	mux.HandleFunc("GET "+base+"/{id}", withEntry(func(w http.ResponseWriter, _ *http.Request, e E) {
		writeJSON(w, http.StatusOK, e.Snapshot())
	}))
	mux.HandleFunc("GET "+base+"/{id}/stream", withEntry(func(w http.ResponseWriter, r *http.Request, e E) {
		streamEvents(w, r, e)
	}))
	mux.HandleFunc("DELETE "+base+"/{id}", func(w http.ResponseWriter, r *http.Request) {
		if err := reg.Delete(r.PathValue("id")); err != nil {
			writeError(w, status(err), err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
}

// eventSource is the replay-then-follow log surface streamEvents
// serves (evlog.Log's).
type eventSource interface {
	Events(i int) (lines [][]byte, next int, wait <-chan struct{}, done bool)
	Subscribe()
	Unsubscribe()
}

// streamEvents writes an event log as NDJSON, replaying everything
// already produced and then following live until the producer ends
// (done, deleted, evicted, or drained) or the client disconnects. Each
// event is one line, flushed as it happens. The replay-then-follow
// design is what makes the stream independent of attach timing: a
// client that connects late still receives the complete, byte-identical
// series.
func streamEvents(w http.ResponseWriter, r *http.Request, src eventSource) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	// The server's ReadTimeout governs reading the *request* and does
	// not cancel a running handler, but clear this connection's read
	// deadline anyway so a stream outliving it can never be severed by
	// a toolchain that polices the deadline from its background read.
	// The next request on the connection gets a fresh deadline.
	http.NewResponseController(w).SetReadDeadline(time.Time{})
	w.WriteHeader(http.StatusOK)
	flusher, canFlush := w.(http.Flusher)

	src.Subscribe()
	defer src.Unsubscribe()

	i := 0
	for {
		lines, next, wait, done := src.Events(i)
		i = next
		if len(lines) > 0 {
			for _, line := range lines {
				w.Write(line)
				w.Write([]byte("\n"))
			}
			if canFlush {
				flusher.Flush()
			}
			continue
		}
		if done {
			return
		}
		select {
		case <-wait:
		case <-r.Context().Done():
			return
		}
	}
}
