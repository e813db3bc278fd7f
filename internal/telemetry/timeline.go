// Timeline: the correlated view over the three rings. Spans (the span
// tracer), audit records (the audit ring), and flight-recorder events
// all carry the same kernel-level EventID, so one query — "everything
// about event 12345", "everything owner alice did in the last 5s" —
// joins the where-did-the-microseconds-go, why-was-it-decided, and
// what-went-wrong streams into one merged, time-sorted document. This
// is what /debug/timeline serves.
package telemetry

import (
	"encoding/json"
	"io"
	"sort"
)

// TimelineQuery filters a timeline. Zero values mean "no constraint".
type TimelineQuery struct {
	// Event selects a single correlation EventID across all three
	// streams (the primary join key).
	Event uint64
	// Owner matches span details, audit owners, and flight owners.
	Owner string
	// Stage restricts spans to one pipeline stage (audit and flight
	// entries are unaffected unless Kind also filters them).
	Stage string
	// Kind restricts audit records (install, negotiate, config, ...)
	// and flight events (fuel_exhausted, quarantine, ...) to one kind.
	Kind string
	// SinceUnixNanos drops anything older than the given wall time.
	SinceUnixNanos int64
}

// TimelineSpan is a span event with its wall-clock start attached
// (trace events are recorder-relative; the timeline is absolute).
type TimelineSpan struct {
	Event
	TimeUnixNanos int64 `json:"time_unix_ns"`
}

// Timeline is the joined document: the three streams, each
// time-sorted, sharing correlation EventIDs.
type Timeline struct {
	// Tenant is set by multi-tenant servers so a saved document
	// self-identifies.
	Tenant string         `json:"tenant,omitempty"`
	Spans  []TimelineSpan `json:"spans"`
	Audit  []AuditRecord  `json:"audit"`
	Flight []FlightEvent  `json:"flight"`
}

// BuildTimeline snapshots the three rings (any of which may be nil)
// and returns the records matching q, each stream sorted by wall time.
func BuildTimeline(rec *Recorder, ar *AuditRing, fr *FlightRecorder, q TimelineQuery) Timeline {
	tl := Timeline{Spans: []TimelineSpan{}, Audit: []AuditRecord{}, Flight: []FlightEvent{}}
	origin := rec.StartTime().UnixNano()
	for _, e := range rec.Trace().Snapshot().Events {
		ts := origin + e.StartNanos
		if q.match(e.Event, e.Detail, ts) && (q.Stage == "" || e.Stage == q.Stage) {
			tl.Spans = append(tl.Spans, TimelineSpan{Event: e, TimeUnixNanos: ts})
		}
	}
	// The span ring is in completion order; a parent span completes
	// after its children but started before them.
	sort.Slice(tl.Spans, func(i, j int) bool {
		a, b := tl.Spans[i], tl.Spans[j]
		if a.TimeUnixNanos != b.TimeUnixNanos {
			return a.TimeUnixNanos < b.TimeUnixNanos
		}
		return a.ID < b.ID
	})
	for _, r := range ar.Snapshot().Events {
		if q.match(r.Event, r.Owner, r.TimeUnixNanos) && (q.Kind == "" || r.Kind == q.Kind) {
			tl.Audit = append(tl.Audit, r)
		}
	}
	for _, e := range fr.Snapshot().Events {
		if q.match(e.Event, e.Owner, e.TimeUnixNanos) && (q.Kind == "" || e.Kind == q.Kind) {
			tl.Flight = append(tl.Flight, e)
		}
	}
	return tl
}

// match applies the constraints every stream shares.
func (q TimelineQuery) match(event uint64, owner string, ts int64) bool {
	return (q.Event == 0 || event == q.Event) &&
		(q.Owner == "" || owner == q.Owner) &&
		(q.SinceUnixNanos == 0 || ts >= q.SinceUnixNanos)
}

// WriteJSON writes the timeline as one indented JSON document.
func (tl Timeline) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(tl)
}
