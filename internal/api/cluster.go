// Cluster wire surface: the canonical routing key shared by the
// service's coalescing and pcfront's consistent hashing, the
// forwarded-hop metadata headers, and the cluster health shape.
//
// The whole cluster design rests on one fact: identical normalized
// requests produce byte-identical responses on any node, so routing is
// an efficiency decision (cache affinity, coalescing), never a
// correctness one. RequestKey is the single definition of "identical"
// — pcfront hashes exactly the key the service coalesces on, instead
// of re-deriving canonicalization in a second package.
package api

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Forwarded-request metadata. pcfront marks the internal hop with
// HeaderForwarded on the backend request, and reports its routing
// decision on the client response — headers, never the body, so the
// body stays byte-identical to a direct single-node answer.
const (
	// HeaderForwarded is set on requests pcfront forwards to a backend
	// (value: the pcfront instance name). Its presence lets a backend
	// distinguish cluster traffic from direct traffic, and a second
	// pcfront refuse to double-proxy.
	HeaderForwarded = "X-Pcfront-Forwarded"
	// HeaderBackend reports which backend served the response.
	HeaderBackend = "X-Pcfront-Backend"
	// HeaderAttempts reports how many backend attempts the request took
	// (1 = first try; retries and hedges count).
	HeaderAttempts = "X-Pcfront-Attempts"
	// HeaderHedged reports "true" when the winning response came from a
	// tail-latency hedge rather than the primary attempt.
	HeaderHedged = "X-Pcfront-Hedged"
	// HeaderRequestKey reports the canonical routing key pcfront hashed
	// (omitted when the request did not canonicalize).
	HeaderRequestKey = "X-Pcfront-Key"
	// HeaderCache reports "hit" when pcfront answered from its answer
	// cache: no backend attempt was made (HeaderAttempts is 0), and
	// HeaderBackend names the node that produced the stored answer.
	HeaderCache = "X-Pcfront-Cache"
)

// MaxBodyBytes bounds a request body on every hop: pcserved refuses a
// larger body with 413 before decoding past the bound, and pcfront,
// which buffers bodies to retry and hedge them, refuses it the same
// way before forwarding.
const MaxBodyBytes = 16 << 20

// RequestKey returns the canonical identity of a request of any
// endpoint type: the exact string the service coalesces identical
// in-flight work on. pcfront hashes it to place the request on the
// fleet, so a request lands on the node already coalescing and
// caching its twin. Accepts values or pointers of the wire request
// types; a validation failure returns the request's error unchanged.
func RequestKey(req any) (string, error) {
	switch r := req.(type) {
	case MeasureRequest:
		n, err := r.Normalized()
		if err != nil {
			return "", err
		}
		return n.Key(), nil
	case *MeasureRequest:
		return RequestKey(*r)
	case AnalyzeRequest:
		n, err := r.Normalized()
		if err != nil {
			return "", err
		}
		keys := make([]string, len(n.Items))
		for i, it := range n.Items {
			keys[i] = it.Key()
		}
		return "analyze|" + strings.Join(keys, ";"), nil
	case *AnalyzeRequest:
		return RequestKey(*r)
	case PlanRequest:
		n, err := r.Normalized()
		if err != nil {
			return "", err
		}
		return n.Key(), nil
	case *PlanRequest:
		return RequestKey(*r)
	case InferRequest:
		n, err := r.Normalized()
		if err != nil {
			return "", err
		}
		keys := make([]string, len(n.Items))
		for i, it := range n.Items {
			keys[i] = it.Key()
		}
		return "inferreq|" + strings.Join(keys, ";"), nil
	case *InferRequest:
		return RequestKey(*r)
	case ExperimentRequest:
		// Experiments have no Key of their own (they are not coalesced);
		// the tuple below is their full identity.
		return fmt.Sprintf("exp|%s|r%d|s%d", r.ID, r.Runs, r.Seed), nil
	case *ExperimentRequest:
		return RequestKey(*r)
	case SessionRequest:
		n, err := r.Normalized()
		if err != nil {
			return "", err
		}
		return n.SessionKey(), nil
	case *SessionRequest:
		return RequestKey(*r)
	case CampaignRequest:
		n, err := r.Normalized()
		if err != nil {
			return "", err
		}
		return "campaign|" + n.Key(), nil
	case *CampaignRequest:
		return RequestKey(*r)
	}
	return "", fmt.Errorf("api: no canonical key for %T", req)
}

// RequestKeyForPath decodes a raw JSON request body addressed to one
// of the service's POST endpoints and returns its RequestKey, with
// whether the body opts into tracing. This is the form pcfront uses: it
// proxies bodies opaquely and needs both answers from one decode. Only
// the four trace-capable endpoints (/measure, /analyze, /plan, /infer)
// report a trace flag. The flag survives a body with a mistyped field
// or one that fails validation: json.Unmarshal still fills the fields
// it could, so an invalid traced request keeps its trace header across
// the hop.
func RequestKeyForPath(path string, body []byte) (key string, trace bool, err error) {
	var (
		req  any
		flag *bool
	)
	switch path {
	case "/measure":
		r := &MeasureRequest{}
		req, flag = r, &r.Trace
	case "/analyze":
		r := &AnalyzeRequest{}
		req, flag = r, &r.Trace
	case "/plan":
		r := &PlanRequest{}
		req, flag = r, &r.Trace
	case "/infer":
		r := &InferRequest{}
		req, flag = r, &r.Trace
	case "/experiment":
		req = &ExperimentRequest{}
	case "/sessions":
		req = &SessionRequest{}
	case "/campaigns":
		req = &CampaignRequest{}
	default:
		return "", false, fmt.Errorf("api: no keyed endpoint %q", path)
	}
	uerr := json.Unmarshal(body, req)
	trace = flag != nil && *flag
	if uerr != nil {
		return "", trace, badf("api: decoding %s request: %v", path, uerr)
	}
	key, err = RequestKey(req)
	return key, trace, err
}

// Cluster node states reported by pcfront's /healthz.
const (
	// NodeHealthy marks a backend passing liveness probes and in the
	// hash ring.
	NodeHealthy = "healthy"
	// NodeUnhealthy marks a backend failing probes; it receives no new
	// requests until it recovers.
	NodeUnhealthy = "unhealthy"
	// NodeDraining marks a backend administratively removed from the
	// ring; in-flight work finishes, new work hashes elsewhere.
	NodeDraining = "draining"
)

// ClusterNode describes one backend's state as pcfront sees it.
type ClusterNode struct {
	// Name is the backend's short identity (host:port of its base URL).
	Name string `json:"name"`
	// URL is the backend's base URL.
	URL string `json:"url"`
	// State is NodeHealthy, NodeUnhealthy, or NodeDraining.
	State string `json:"state"`
	// Inflight is the number of proxied requests (streams included)
	// currently outstanding against the backend.
	Inflight int64 `json:"inflight"`
	// Requests, Errors, Hedges, and Retries count per-backend proxy
	// outcomes since pcfront start: attempts sent, attempts that failed
	// (transport error or 5xx), hedge attempts launched against the
	// backend, and retry attempts sent to it after another backend
	// failed.
	Requests uint64 `json:"requests"`
	Errors   uint64 `json:"errors"`
	Hedges   uint64 `json:"hedges"`
	Retries  uint64 `json:"retries"`
}

// ClusterHealthResponse is pcfront's GET /healthz body: the proxy's
// own liveness plus the fleet as it sees it.
type ClusterHealthResponse struct {
	// Status is "ok" when every node is healthy, "degraded" when some
	// are not but at least one is, "unavailable" when none are.
	Status string `json:"status"`
	// Nodes lists every configured backend in configuration order.
	Nodes []ClusterNode `json:"nodes"`
	// Hedged and Retried count requests (not attempts) that engaged
	// hedging or retries since start; HedgeWins counts hedged requests
	// the hedge won.
	Hedged    uint64 `json:"hedged"`
	HedgeWins uint64 `json:"hedgeWins"`
	Retried   uint64 `json:"retried"`
	// Sessions and Campaigns count stream owners pcfront is tracking
	// (the pinned id -> node routes).
	Sessions  int `json:"sessions"`
	Campaigns int `json:"campaigns"`
}

// BackendStatus is one node's row in the fleet status document
// (pcfront's GET /cluster/healthz): the front's routing view of the
// node joined with the node's own /healthz report.
type BackendStatus struct {
	// Node is the front's view: ring/drain state and proxy counters.
	Node ClusterNode `json:"node"`
	// Reachable reports whether the node answered its /healthz scrape.
	Reachable bool `json:"reachable"`
	// Health is the node's own report, present when Reachable.
	Health *HealthResponse `json:"health,omitempty"`
	// Error describes the scrape failure when not Reachable.
	Error string `json:"error,omitempty"`
}

// ClusterStatusResponse is pcfront's GET /cluster/healthz body: the
// whole fleet as one document — the front's summary plus one row per
// backend.
type ClusterStatusResponse struct {
	Front    ClusterHealthResponse `json:"front"`
	Backends []BackendStatus       `json:"backends"`
}

// ClusterStatusFrom assembles the fleet document from the front's own
// health view and the per-node scrape results, keyed by node name. Like
// HealthFrom it is a pure snapshot-to-wire-shape function: rows come
// out in the front's configuration order, a node missing from health
// gets its scrape error (or "unreachable") instead of a report.
func ClusterStatusFrom(front ClusterHealthResponse, health map[string]*HealthResponse, errs map[string]string) ClusterStatusResponse {
	out := ClusterStatusResponse{
		Front:    front,
		Backends: make([]BackendStatus, len(front.Nodes)),
	}
	for i, n := range front.Nodes {
		row := BackendStatus{Node: n}
		if h, ok := health[n.Name]; ok {
			row.Reachable = true
			row.Health = h
		} else if msg, ok := errs[n.Name]; ok && msg != "" {
			row.Error = msg
		} else {
			row.Error = "unreachable"
		}
		out.Backends[i] = row
	}
	return out
}
