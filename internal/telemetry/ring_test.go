package telemetry

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"strconv"
	"sync"
	"testing"
	"time"
)

const (
	wrapCapacity = 8 // tiny ring: hundreds of wraps per run
	wrapWriters  = 4
	wrapWrites   = 2000 // per writer
)

// wrapID is the correlation EventID writer g stamps on its i-th append;
// wrapWriter inverts it.
func wrapID(g, i int) uint64 { return uint64(g*1_000_000 + i + 1) }

func wrapWriter(id uint64) (g, i int) {
	return int(id-1) / 1_000_000, int(id-1) % 1_000_000
}

// wrapCase drives one Ring instantiation through the path the kernel
// uses to append to it.
type wrapCase[T any] struct {
	ring  *Ring[T]
	write func(g, i int)
	// ident recovers the writer and iteration from a record, reporting
	// false when the record's fields disagree with each other (torn).
	ident func(T) (g, i int, ok bool)
	// seq returns the record's own sequence field, where it has one.
	seq func(T) (uint64, bool)
}

// TestRingSnapshotInvariantUnderWrap races 4 writers against a
// snapshotting reader on an 8-slot ring for each of the three rings,
// asserting at every snapshot that
//
//	appended == len(events) + dropped
//
// holds exactly, that events are in append order (per writer, and by
// sequence where the record carries one) with every sequence below
// appended, and that no record is torn. Run under -race.
func TestRingSnapshotInvariantUnderWrap(t *testing.T) {
	t.Run("spans", func(t *testing.T) {
		rec := NewWith(Options{TraceCapacity: wrapCapacity})
		runWrapCase(t, wrapCase[Event]{
			ring: rec.Trace(),
			write: func(g, i int) {
				rec.RecordSpan(StageDispatch, "w"+strconv.Itoa(g), 0, wrapID(g, i), time.Now(), time.Duration(i), nil)
			},
			ident: func(e Event) (int, int, bool) {
				g, i := wrapWriter(e.Event)
				return g, i, e.Stage == StageDispatch && e.Detail == "w"+strconv.Itoa(g) && e.DurNanos == int64(i) && e.ID != 0
			},
			seq: func(Event) (uint64, bool) { return 0, false },
		})
	})
	t.Run("audit", func(t *testing.T) {
		ar := NewAuditRing(wrapCapacity)
		log := slog.New(ar.Handler(nil))
		runWrapCase(t, wrapCase[AuditRecord]{
			ring: ar.ring(),
			write: func(g, i int) {
				log.Info("m", slog.Int("i", i), slog.Uint64("event_id", wrapID(g, i)))
			},
			ident: func(r AuditRecord) (int, int, bool) {
				g, i := wrapWriter(r.Event)
				return g, i, r.Msg == "m" && r.Level == "INFO" && r.Attrs["i"] == strconv.Itoa(i) && r.TimeUnixNanos != 0
			},
			seq: func(r AuditRecord) (uint64, bool) { return r.Seq, true },
		})
	})
	t.Run("flight", func(t *testing.T) {
		fr := NewFlightRecorder(wrapCapacity)
		runWrapCase(t, wrapCase[FlightEvent]{
			ring: fr.ring(),
			write: func(g, i int) {
				fr.RecordEvent(FlightFuelExhausted, "owner", strconv.Itoa(i), wrapID(g, i))
			},
			ident: func(e FlightEvent) (int, int, bool) {
				g, i := wrapWriter(e.Event)
				return g, i, e.Kind == FlightFuelExhausted && e.Owner == "owner" && e.Detail == strconv.Itoa(i) && e.TimeUnixNanos != 0
			},
			seq: func(e FlightEvent) (uint64, bool) { return e.Seq, true },
		})
	})
}

func runWrapCase[T any](t *testing.T, c wrapCase[T]) {
	var wg sync.WaitGroup
	for g := 0; g < wrapWriters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < wrapWrites; i++ {
				c.write(g, i)
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	for snapshots := 1; ; snapshots++ {
		var stop bool
		select {
		case <-done:
			stop = true // one last snapshot, at rest
		default:
		}
		snap := c.ring.Snapshot()
		if snap.Appended != int64(len(snap.Events))+snap.Dropped {
			t.Fatalf("snapshot %d: appended %d != events %d + dropped %d",
				snapshots, snap.Appended, len(snap.Events), snap.Dropped)
		}
		if snap.Capacity != wrapCapacity || len(snap.Events) > wrapCapacity {
			t.Fatalf("snapshot %d: %d events in a %d ring", snapshots, len(snap.Events), snap.Capacity)
		}
		last, prevSeq := map[int]int{}, int64(-1)
		for _, e := range snap.Events {
			g, i, ok := c.ident(e)
			if !ok {
				t.Fatalf("snapshot %d: torn record %+v", snapshots, e)
			}
			if prev, seen := last[g]; seen && i <= prev {
				t.Fatalf("snapshot %d: writer %d's append %d listed after its append %d", snapshots, g, i, prev)
			}
			last[g] = i
			if s, has := c.seq(e); has {
				if int64(s) <= prevSeq || int64(s) >= snap.Appended {
					t.Fatalf("snapshot %d: seq %d after %d, appended %d", snapshots, s, prevSeq, snap.Appended)
				}
				prevSeq = int64(s)
			}
		}
		// WriteJSON is the same snapshot through the encoder; it must
		// stay well-formed mid-wrap too.
		var buf bytes.Buffer
		if err := c.ring.WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON under churn: %v", err)
		}
		var back RingSnapshot[T]
		if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
			t.Fatalf("WriteJSON emitted invalid JSON under churn: %v", err)
		}
		if back.Appended != int64(len(back.Events))+back.Dropped {
			t.Fatalf("decoded snapshot breaks the invariant: %+v", back)
		}
		if stop {
			break
		}
	}

	// At rest no append is lost and the ring is full of the newest.
	snap := c.ring.Snapshot()
	if want := int64(wrapWriters * wrapWrites); snap.Appended != want || c.ring.Appended() != want {
		t.Fatalf("appended %d (ring says %d), want %d", snap.Appended, c.ring.Appended(), want)
	}
	if len(snap.Events) != wrapCapacity || snap.Dropped != c.ring.Dropped() {
		t.Fatalf("at rest: %d events, dropped %d (ring says %d)", len(snap.Events), snap.Dropped, c.ring.Dropped())
	}
}
