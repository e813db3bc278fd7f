// Span tracer: a fixed-capacity Ring of completed spans. Each span
// appends one event when it ends, lock-free, so the dispatch path
// never queues behind a reader.
package telemetry

// Event is one completed span. Times are nanoseconds since the
// recorder was created (a monotonic, export-friendly origin).
type Event struct {
	// ID identifies the span; Parent links a child stage to its
	// enclosing span (0 = root).
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	// Event is the kernel-level correlation EventID shared with the
	// audit record and any flight-recorder events produced by the same
	// operation (0 = uncorrelated). Span IDs are per-recorder and
	// per-span; EventIDs are per-kernel and per-operation, so one
	// install or dispatch batch yields one EventID across many spans.
	Event uint64 `json:"event,omitempty"`
	// Stage is the pipeline stage name (see Stages).
	Stage string `json:"stage"`
	// Detail is free-form context: the owner of an install, the name
	// of a negotiated policy, a cache-probe verdict.
	Detail string `json:"detail,omitempty"`
	// StartNanos/DurNanos locate the span on the recorder's clock.
	StartNanos int64 `json:"start_ns"`
	DurNanos   int64 `json:"dur_ns"`
	// Err is the failure, if the stage failed.
	Err string `json:"err,omitempty"`
}

// Trace is the ring of completed spans, oldest first in completion
// order (see Ring).
type Trace = Ring[Event]

// DefaultTraceCapacity is the ring size of recorders built with New.
const DefaultTraceCapacity = 4096
