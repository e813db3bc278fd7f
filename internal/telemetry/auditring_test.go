package telemetry

import (
	"bytes"
	"io"
	"log/slog"
	"testing"
)

// TestAuditRingHandler: records logged through the tee handler land in
// the ring with the join keys hoisted (event → Kind, owner → Owner,
// event_id → Event) and everything else flattened into Attrs, while
// still forwarding to the next handler.
func TestAuditRingHandler(t *testing.T) {
	ring := NewAuditRing(8)
	var fwd bytes.Buffer
	log := slog.New(ring.Handler(slog.NewJSONHandler(&fwd, nil)))
	log.Info("pcc install",
		slog.String("event", "install"),
		slog.String("owner", "alice"),
		slog.Uint64("event_id", 42),
		slog.String("policy", "packet-filter/v1"),
	)
	recs := ring.Records()
	if len(recs) != 1 {
		t.Fatalf("ring holds %d records, want 1", len(recs))
	}
	r := recs[0]
	if r.Kind != "install" || r.Owner != "alice" || r.Event != 42 {
		t.Fatalf("join keys not hoisted: %+v", r)
	}
	if r.Attrs["policy"] != "packet-filter/v1" {
		t.Fatalf("plain attrs must flatten: %+v", r.Attrs)
	}
	if r.Msg != "pcc install" || r.Level != "INFO" || r.TimeUnixNanos == 0 {
		t.Fatalf("record envelope wrong: %+v", r)
	}
	if !bytes.Contains(fwd.Bytes(), []byte(`"owner":"alice"`)) {
		t.Fatalf("tee must forward to the next handler: %s", fwd.String())
	}
}

// TestAuditRingWithAttrsAndGroups: logger.With attributes (the
// per-tenant tag) and groups survive into the captured record.
func TestAuditRingWithAttrsAndGroups(t *testing.T) {
	ring := NewAuditRing(8)
	log := slog.New(ring.Handler(nil)).With("tenant", "a")
	log.WithGroup("lf").Info("m", slog.Int("steps", 7), slog.Uint64("event_id", 3))
	recs := ring.Records()
	if len(recs) != 1 {
		t.Fatalf("ring holds %d records, want 1", len(recs))
	}
	r := recs[0]
	if r.Attrs["tenant"] != "a" {
		t.Fatalf("With attrs must be captured: %+v", r.Attrs)
	}
	if r.Attrs["lf.steps"] != "7" {
		t.Fatalf("group-qualified attrs must flatten with a prefix: %+v", r.Attrs)
	}
	if r.Event != 0 {
		// event_id inside a group is lf.event_id, not the join key.
		t.Fatalf("grouped event_id must not hoist: %+v", r)
	}
	if r.Attrs["lf.event_id"] != "3" {
		t.Fatalf("grouped event_id must stay an attr: %+v", r.Attrs)
	}
}

// TestAuditRingWrapAndJSONL: ring overwrite accounting and the
// JSONL round trip.
func TestAuditRingWrapAndJSONL(t *testing.T) {
	ring := NewAuditRing(4)
	log := slog.New(ring.Handler(nil))
	for i := 0; i < 6; i++ {
		log.Info("m", slog.Uint64("event_id", uint64(i+1)))
	}
	if ring.Appended() != 6 {
		t.Fatalf("appended = %d, want 6", ring.Appended())
	}
	recs := ring.Records()
	if len(recs) != 4 || recs[0].Seq != 2 || recs[3].Seq != 5 {
		t.Fatalf("wrap must keep the newest 4: %+v", recs)
	}
	var buf bytes.Buffer
	if err := ring.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL[AuditRecord](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 4 || back[0].Event != 3 || back[3].Event != 6 {
		t.Fatalf("JSONL round trip lost records: %+v", back)
	}
}

// TestAuditRingNil: a nil ring is a silent no-op sink.
func TestAuditRingNil(t *testing.T) {
	var ring *AuditRing
	ring.add(AuditRecord{})
	if ring.Appended() != 0 || ring.Records() != nil {
		t.Fatal("nil ring must be inert")
	}
	if err := ring.WriteJSONL(io.Discard); err != nil {
		t.Fatal(err)
	}
}
