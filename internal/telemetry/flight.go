// Dispatch flight recorder: a fixed-capacity lock-free ring of the
// last N anomalies the kernel saw — fuel exhaustion, memory faults,
// oversize-packet fallbacks, backend fallbacks, quarantine trips, and
// security/performance-posture config changes. The span tracer answers
// "where did the microseconds go"; the flight recorder answers "what
// went wrong just before the page" with filter/owner identity and wall
// timestamps, cheap enough to leave on in production (anomalies are
// rare; the happy path never touches it).
package telemetry

import (
	"encoding/json"
	"io"
	"sort"
	"sync/atomic"
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
	// FlightBackendFallback: the kernel's backend is compiled but a
	// filter has no compiled form, so it dispatches interpreted.
	// Recorded once per transition — when such a filter is published,
	// or when the breaker demotes one — not once per dispatch.
	FlightBackendFallback = "backend_fallback"
	// FlightQuarantine: an owner tripped the rejection threshold and
	// entered install embargo.
	FlightQuarantine = "quarantine"
	// FlightConfigChange: SetBackend/SetProfiling/SetLimits/
	// SetQuarantine changed the kernel's posture.
	FlightConfigChange = "config_change"
	// FlightBreakerOpen: a filter's fault circuit breaker tripped — the
	// compiled form was demoted to the interpreter pending backoff.
	FlightBreakerOpen = "breaker_open"
	// FlightBreakerHalfOpen: an open breaker's backoff elapsed and the
	// filter was re-promoted to its compiled form on probation.
	FlightBreakerHalfOpen = "breaker_halfopen"
	// FlightBreakerClose: a half-open breaker survived its probation
	// dispatches fault-free and closed.
	FlightBreakerClose = "breaker_close"
	// FlightRecoverySkip: boot-time recovery skipped a journal record —
	// corrupt framing, out-of-order splice, or a blob the validation
	// pipeline rejected (disk is an untrusted producer).
	FlightRecoverySkip = "recovery_skip"
)

// FlightEvent is one recorded anomaly.
type FlightEvent struct {
	// Seq is the event's global sequence number (monotonic from 0);
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

// FlightRecorder is the anomaly ring. Appends are lock-free (one
// atomic counter claims a slot, one atomic pointer store publishes),
// so recording from the dispatch path never blocks; when full, the
// oldest events are overwritten. A nil *FlightRecorder is a valid
// no-op sink.
type FlightRecorder struct {
	slots []atomic.Pointer[FlightEvent]
	next  atomic.Uint64
}

// NewFlightRecorder builds a ring holding up to capacity events.
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightCapacity
	}
	return &FlightRecorder{slots: make([]atomic.Pointer[FlightEvent], capacity)}
}

// Record appends one anomaly, stamped now.
func (f *FlightRecorder) Record(kind, owner, detail string) {
	f.RecordEvent(kind, owner, detail, 0)
}

// RecordEvent appends one anomaly correlated with the kernel EventID
// event (0 = uncorrelated), stamped now.
func (f *FlightRecorder) RecordEvent(kind, owner, detail string, event uint64) {
	if f == nil {
		return
	}
	e := &FlightEvent{
		TimeUnixNanos: time.Now().UnixNano(),
		Kind:          kind,
		Owner:         owner,
		Detail:        detail,
		Event:         event,
	}
	e.Seq = f.next.Add(1) - 1
	f.slots[e.Seq%uint64(len(f.slots))].Store(e)
}

// Cap returns the ring capacity.
func (f *FlightRecorder) Cap() int {
	if f == nil {
		return 0
	}
	return len(f.slots)
}

// Appended returns the total number of events ever recorded.
func (f *FlightRecorder) Appended() int64 {
	if f == nil {
		return 0
	}
	return int64(f.next.Load())
}

// Dropped returns how many events have been overwritten by ring wrap.
func (f *FlightRecorder) Dropped() int64 {
	if f == nil {
		return 0
	}
	n := f.Appended() - int64(len(f.slots))
	if n < 0 {
		return 0
	}
	return n
}

// Events snapshots the ring's current contents, oldest first. Each
// slot is read atomically; a concurrent append may replace a slot
// mid-snapshot, so the result is a consistent set of real events but
// not a point-in-time cut.
func (f *FlightRecorder) Events() []FlightEvent {
	if f == nil {
		return nil
	}
	out := make([]FlightEvent, 0, len(f.slots))
	for i := range f.slots {
		if e := f.slots[i].Load(); e != nil {
			out = append(out, *e)
		}
	}
	// Seq order == record order; slots wrap, so sort by Seq.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].Seq > out[j].Seq; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// FlightSnapshot is the JSON document WriteJSON emits (and the serve
// endpoint exposes). The accounting invariant
//
//	Appended == len(Events) + Dropped
//
// holds exactly at every snapshot, even while appends race: Dropped
// counts both ring-overwritten events and slots claimed by an
// in-flight append but not yet published.
type FlightSnapshot struct {
	Capacity int           `json:"capacity"`
	Appended int64         `json:"appended"`
	Dropped  int64         `json:"dropped"`
	Events   []FlightEvent `json:"events"`
}

// Snapshot captures a consistent view of the ring. The append counter
// is read once, first; only events sequenced strictly below that read
// are included, and Dropped is defined as the difference — so the
// Appended == len(Events) + Dropped invariant holds by construction
// regardless of concurrent appends, and every included Seq is unique
// (distinct slots hold distinct residues mod capacity).
func (f *FlightRecorder) Snapshot() FlightSnapshot {
	snap := FlightSnapshot{Capacity: f.Cap(), Events: []FlightEvent{}}
	if f == nil {
		return snap
	}
	a := int64(f.next.Load())
	for i := range f.slots {
		if e := f.slots[i].Load(); e != nil && int64(e.Seq) < a {
			snap.Events = append(snap.Events, *e)
		}
	}
	// Seq order == record order; slots wrap, so sort by Seq.
	sort.Slice(snap.Events, func(i, j int) bool {
		return snap.Events[i].Seq < snap.Events[j].Seq
	})
	snap.Appended = a
	snap.Dropped = a - int64(len(snap.Events))
	return snap
}

// WriteJSON writes the ring state as one indented JSON document:
// {"capacity", "appended", "dropped", "events": [...oldest first]}.
func (f *FlightRecorder) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f.Snapshot())
}
