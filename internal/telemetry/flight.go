// Dispatch flight recorder: a fixed-capacity lock-free Ring of the
// last N anomalies the kernel saw — fuel exhaustion, memory faults,
// oversize-packet fallbacks, backend fallbacks, quarantine trips, and
// security/performance-posture config changes. The span tracer answers
// "where did the microseconds go"; the flight recorder answers "what
// went wrong just before the page" with filter/owner identity and wall
// timestamps, cheap enough to leave on in production (anomalies are
// rare; the happy path never touches it).
package telemetry

import (
	"io"
	"time"
)

// Flight-event kinds. Detail carries the specifics (error text, old
// and new config values, sizes).
const (
	// FlightFuelExhausted: a filter ran out of dispatch fuel (runaway
	// loop caught by the budget, not by a check — there are none).
	FlightFuelExhausted = "fuel_exhausted"
	// FlightMemoryFault: a filter faulted on a memory access at
	// dispatch time (only possible for unvalidated test filters or a
	// broken proof checker; always worth a look).
	FlightMemoryFault = "memory_fault"
	// FlightDispatchFault: any other dispatch-time execution fault.
	FlightDispatchFault = "dispatch_fault"
	// FlightOversizePacket: a packet exceeded the pooled arena and took
	// the allocating fallback path.
	FlightOversizePacket = "oversize_fallback"
	// FlightBackendFallback: a filter dispatches interpreted although
	// it was meant to run compiled. Recorded once per transition — when
	// a filter with no compiled form is published under the compiled
	// backend, and on every demotion of a compiled form that faulted
	// at dispatch — not once per dispatch.
	FlightBackendFallback = "backend_fallback"
	// FlightQuarantine: an owner tripped the rejection threshold and
	// entered install embargo.
	FlightQuarantine = "quarantine"
	// FlightConfigChange: SetBackend/SetProfiling/SetLimits/
	// SetQuarantine changed the kernel's posture.
	FlightConfigChange = "config_change"
	// FlightRecoverySkip: boot-time recovery skipped a journal record —
	// corrupt framing, out-of-order splice, or a blob the validation
	// pipeline rejected (disk is an untrusted producer).
	FlightRecoverySkip = "recovery_skip"
)

// FlightEvent is one recorded anomaly.
type FlightEvent struct {
	// Seq is the event's ring sequence number (monotonic from 0);
	// gaps at the low end mean the ring wrapped.
	Seq uint64 `json:"seq"`
	// TimeUnixNanos is the wall-clock timestamp.
	TimeUnixNanos int64 `json:"time_unix_ns"`
	// Kind is one of the Flight* constants.
	Kind string `json:"kind"`
	// Owner is the filter/owner identity, when the anomaly has one.
	Owner string `json:"owner,omitempty"`
	// Detail is free-form specifics.
	Detail string `json:"detail,omitempty"`
	// Event is the kernel-level correlation EventID shared with the
	// span tree and audit record of the operation that hit the anomaly
	// (0 = uncorrelated).
	Event uint64 `json:"event,omitempty"`
}

// DefaultFlightCapacity is the ring size used when capacity <= 0.
const DefaultFlightCapacity = 256

// FlightRecorder is the anomaly Ring. Recording from the dispatch path
// never blocks; when full, the oldest events are overwritten. A nil
// *FlightRecorder is a valid no-op sink.
type FlightRecorder Ring[FlightEvent]

// FlightSnapshot is the JSON document WriteJSON emits (and the serve
// endpoint exposes), with the exact accounting of RingSnapshot.
type FlightSnapshot = RingSnapshot[FlightEvent]

// NewFlightRecorder builds a ring holding up to capacity events.
func NewFlightRecorder(capacity int) *FlightRecorder {
	return (*FlightRecorder)(newRing[FlightEvent](capacity, DefaultFlightCapacity))
}

func (f *FlightRecorder) ring() *Ring[FlightEvent] { return (*Ring[FlightEvent])(f) }

// RecordEvent appends one anomaly correlated with the kernel EventID
// event (0 = uncorrelated), stamped now and with its ring sequence.
func (f *FlightRecorder) RecordEvent(kind, owner, detail string, event uint64) {
	if f == nil {
		return
	}
	e := FlightEvent{
		TimeUnixNanos: time.Now().UnixNano(),
		Kind:          kind,
		Owner:         owner,
		Detail:        detail,
		Event:         event,
	}
	e.Seq = f.ring().claim()
	f.ring().publish(e.Seq, e)
}

// Cap, Appended, Dropped, Events, Snapshot and WriteJSON read the ring
// (see Ring).
func (f *FlightRecorder) Cap() int                 { return f.ring().Cap() }
func (f *FlightRecorder) Appended() int64          { return f.ring().Appended() }
func (f *FlightRecorder) Dropped() int64           { return f.ring().Dropped() }
func (f *FlightRecorder) Events() []FlightEvent    { return f.ring().Events() }
func (f *FlightRecorder) Snapshot() FlightSnapshot { return f.ring().Snapshot() }
func (f *FlightRecorder) WriteJSON(w io.Writer) error {
	return f.ring().WriteJSON(w)
}
