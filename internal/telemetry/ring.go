// Ring: the one lock-free ring buffer behind the span tracer, the
// flight recorder, and the audit ring. An append claims a sequence
// number with one atomic add and publishes the value with one atomic
// pointer store, so a writer on the dispatch path never queues behind
// a reader or another writer. When the ring wraps, the oldest entries
// are overwritten and counted as dropped — telemetry degrades by
// forgetting history, never by blocking the kernel.
package telemetry

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sync/atomic"
)

// Ring is a fixed-capacity ring of T values. A nil *Ring reads as
// empty.
type Ring[T any] struct {
	slots []atomic.Pointer[entry[T]]
	next  atomic.Uint64 // total entries ever claimed
}

// entry is one published value under the sequence number it claimed.
type entry[T any] struct {
	seq uint64
	v   T
}

// newRing builds a ring holding up to capacity values (def when
// capacity <= 0).
func newRing[T any](capacity, def int) *Ring[T] {
	if capacity <= 0 {
		capacity = def
	}
	return &Ring[T]{slots: make([]atomic.Pointer[entry[T]], capacity)}
}

// claim reserves the next sequence number. Until publish stores the
// value, the slot keeps its previous entry and a snapshot counts seq
// as dropped.
func (r *Ring[T]) claim() uint64 { return r.next.Add(1) - 1 }

// publish stores v as the entry sequenced seq, overwriting the oldest.
func (r *Ring[T]) publish(seq uint64, v T) {
	r.slots[seq%uint64(len(r.slots))].Store(&entry[T]{seq: seq, v: v})
}

// Cap returns the ring capacity.
func (r *Ring[T]) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.slots)
}

// Appended returns the total number of values ever appended.
func (r *Ring[T]) Appended() int64 {
	if r == nil {
		return 0
	}
	return int64(r.next.Load())
}

// Dropped returns how many values ring wrap has overwritten.
func (r *Ring[T]) Dropped() int64 {
	return max(r.Appended()-int64(r.Cap()), 0)
}

// RingSnapshot is a consistent cut of a ring: Events oldest first, in
// append order, and the accounting invariant
//
//	Appended == len(Events) + Dropped
//
// exact even while appends race. Dropped counts values overwritten by
// wrap plus values claimed but not yet published.
type RingSnapshot[T any] struct {
	Capacity int   `json:"capacity"`
	Appended int64 `json:"appended"`
	Dropped  int64 `json:"dropped"`
	Events   []T   `json:"events"`
}

// Snapshot reads the append counter once, first, and keeps only the
// entries sequenced strictly below that read, ordered by sequence.
// Distinct slots hold distinct sequence numbers, so every kept entry
// is unique, and Dropped is defined as the difference.
func (r *Ring[T]) Snapshot() RingSnapshot[T] {
	s := RingSnapshot[T]{Capacity: r.Cap(), Events: []T{}}
	if r == nil {
		return s
	}
	a := r.next.Load()
	live := make([]*entry[T], 0, len(r.slots))
	for i := range r.slots {
		if e := r.slots[i].Load(); e != nil && e.seq < a {
			live = append(live, e)
		}
	}
	slices.SortFunc(live, func(x, y *entry[T]) int { return cmp.Compare(x.seq, y.seq) })
	s.Events = make([]T, len(live))
	for i, e := range live {
		s.Events[i] = e.v
	}
	s.Appended = int64(a)
	s.Dropped = s.Appended - int64(len(live))
	return s
}

// Events returns the snapshot's values, oldest first (nil for a nil
// ring).
func (r *Ring[T]) Events() []T {
	if r == nil {
		return nil
	}
	return r.Snapshot().Events
}

// WriteJSON writes the snapshot as one indented JSON document:
// {"capacity", "appended", "dropped", "events": [...oldest first]}.
func (r *Ring[T]) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WriteJSONL writes the snapshot's values as JSON-lines, oldest first.
func (r *Ring[T]) WriteJSONL(w io.Writer) error { return r.Snapshot().WriteJSONL(w) }

// WriteJSONL writes the values as JSON-lines, oldest first.
func (s RingSnapshot[T]) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, v := range s.Events {
		if err := enc.Encode(v); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL decodes a JSON-lines export of a ring (the inverse of
// WriteJSONL); blank lines are skipped and a malformed line is an
// error.
func ReadJSONL[T any](r io.Reader) ([]T, error) {
	var out []T
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var v T
		if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
			return nil, fmt.Errorf("telemetry: JSON-lines line %d: %w", line, err)
		}
		out = append(out, v)
	}
	return out, sc.Err()
}
