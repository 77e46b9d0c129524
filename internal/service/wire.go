package service

import (
	"encoding/json"
	"fmt"
	"net/http"

	"vcprof/internal/live"
	"vcprof/internal/obs"
	"vcprof/internal/telemetry"
)

// The shard wire protocol (DESIGN.md §8, "Wire protocol"). These are the
// only definitions of the JSON documents a daemon and a gate exchange
// with their clients and with each other: the handlers marshal them,
// Client decodes them, and TestWireShapes pins their bytes.

// MaxSpecBytes bounds a request document (job spec, session create,
// feed); MaxResultBytes bounds a result body wherever one crosses the
// wire — a replica PUT into a shard and every Client read of one.
const (
	MaxSpecBytes   = 1 << 20
	MaxResultBytes = 8 << 20
)

// JobStatus is the wire form of a job's state: the body of every
// /v1/jobs answer and of the non-200 /v1/results answers.
type JobStatus struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Cached bool   `json:"cached,omitempty"`
	Error  string `json:"error,omitempty"`
}

// RegistryInfo is the GET /v1/registry document the router's health
// probes read. State is "serving" or "draining".
type RegistryInfo struct {
	Name         string `json:"name"`
	State        string `json:"state"`
	StoreObjects int    `json:"store_objects"`
	StoreBytes   int64  `json:"store_bytes"`
	QueueDepth   int    `json:"queue_depth"`
}

// SessionCreateReq opens a live session, or with Resume re-creates one
// from a GOP-boundary token.
type SessionCreateReq struct {
	Spec   live.SessionSpec  `json:"spec"`
	Resume *live.ResumeToken `json:"resume,omitempty"`
}

// SessionCreateResp answers a create. Shard and Trace are set by a gate
// only: Shard names the pinned backend (harnesses aim chaos at it) and
// Trace is the id clients pass to /v1/cluster/trace.
type SessionCreateResp struct {
	ID      string           `json:"id"`
	Key     string           `json:"key"`
	Resumed bool             `json:"resumed,omitempty"`
	Spec    live.SessionSpec `json:"spec"`
	Shard   string           `json:"shard,omitempty"`
	Trace   string           `json:"trace,omitempty"`
}

// SessionFeedReq advances the arrival watermark. Fed is the absolute
// total of frames that have arrived — not a delta — so a replayed or
// reordered request can never double-feed a session: feeding to a
// watermark the session already passed is a no-op.
type SessionFeedReq struct {
	Fed int  `json:"fed"`
	EOS bool `json:"eos,omitempty"`
}

// SessionFeedResp carries the GOPs the feed completed plus the token a
// failover would resume from.
type SessionFeedResp struct {
	ID     string           `json:"id"`
	GOPs   []live.GOPResult `json:"gops"`
	Stats  live.Stats       `json:"stats"`
	Resume live.ResumeToken `json:"resume"`
}

// SessionStatsResp is the GET /v1/sessions/{id}/stats document.
type SessionStatsResp struct {
	ID    string              `json:"id"`
	Spec  live.SessionSpec    `json:"spec"`
	Stats live.Stats          `json:"stats"`
	SLO   telemetry.SLOReport `json:"slo"`
}

// TraceSlice is the GET /v1/trace/{id} slice-exchange document: the
// emitting process, the trace id, and its hop events in emission order.
// Merging, deduplication and clock alignment happen at the collector —
// slices stay raw so the same bytes serve any view.
type TraceSlice struct {
	Proc   string         `json:"proc"`
	Trace  string         `json:"trace"`
	Events []obs.HopEvent `json:"events"`
}

// Topdown is the JSON form of a top-down snapshot. Fractions are
// level-1 and sum to 1 whenever total_slots > 0.
type Topdown struct {
	ID         string  `json:"id,omitempty"`
	State      string  `json:"state,omitempty"`
	Retiring   float64 `json:"retiring"`
	BadSpec    float64 `json:"bad_spec"`
	Frontend   float64 `json:"frontend"`
	Backend    float64 `json:"backend"`
	TotalSlots uint64  `json:"total_slots"`
	Producers  int     `json:"producers"`
	Flushes    uint64  `json:"flushes"`
	Commits    uint64  `json:"commits"`
}

// WriteJSON answers with v as one JSON line. It is the only place a
// handler — shared, daemon or gate — sets the JSON content type.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	w.Write(append(data, '\n'))
}

// WriteError answers with the {"error": ...} document.
func WriteError(w http.ResponseWriter, code int, format string, args ...any) {
	WriteJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// DecodeJSON reads one request document into v: at most MaxSpecBytes,
// unknown fields rejected.
func DecodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxSpecBytes))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// traceIDFromRequest reads the propagated trace id off the wire,
// falling back to the content-derived default — which a gate, deriving
// from the same key, sends anyway. The validation bound keeps
// arbitrary header bytes out of exports.
func traceIDFromRequest(r *http.Request, fallback string) string {
	if v := r.Header.Get(obs.TraceHeader); obs.ValidTraceID(v) {
		return v
	}
	return fallback
}
