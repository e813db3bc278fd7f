package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/pktgen"
	"repro/internal/telemetry"
)

// TestExportStreamsRoundTrip: -export writes the three observability
// streams, they decode with the package readers, and they join on the
// shared correlation EventID — installs across spans+audit, and the
// config change across all three (span + audit record + flight event).
func TestExportStreamsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	pkts := pktgen.Generate(256, pktgen.Config{Seed: 1996})
	if err := exportStreams(dir, pkts); err != nil {
		t.Fatal(err)
	}

	sf, err := os.Open(filepath.Join(dir, "spans.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	spans, err := telemetry.ReadJSONL[telemetry.Event](sf)
	if err != nil {
		t.Fatal(err)
	}
	af, err := os.Open(filepath.Join(dir, "audit.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer af.Close()
	audit, err := telemetry.ReadJSONL[telemetry.AuditRecord](af)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := os.ReadFile(filepath.Join(dir, "flight.json"))
	if err != nil {
		t.Fatal(err)
	}
	var flight telemetry.FlightSnapshot
	if err := json.Unmarshal(fb, &flight); err != nil {
		t.Fatal(err)
	}

	spanIDs := map[uint64][]telemetry.Event{}
	for _, e := range spans {
		if e.Event != 0 {
			spanIDs[e.Event] = append(spanIDs[e.Event], e)
		}
	}
	if len(spanIDs) == 0 {
		t.Fatal("exported spans carry no EventIDs")
	}

	// Every install audit record joins back to a validate span tree on
	// its EventID.
	installs := 0
	for _, r := range audit {
		if r.Kind != "install" {
			continue
		}
		installs++
		if r.Event == 0 {
			t.Fatalf("install audit record without EventID: %+v", r)
		}
		es, ok := spanIDs[r.Event]
		if !ok {
			t.Fatalf("install EventID %d has no spans", r.Event)
		}
		var foundValidate bool
		for _, e := range es {
			if e.Stage == telemetry.StageValidate && e.Detail == r.Owner {
				foundValidate = true
			}
		}
		if !foundValidate {
			t.Fatalf("EventID %d: no validate span for owner %q among %+v", r.Event, r.Owner, es)
		}
	}
	if installs == 0 {
		t.Fatal("export produced no install audit records")
	}

	// The config change (SetBackend) is the three-way join: one
	// EventID present as a config span, a config audit record, and a
	// config_change flight event.
	joined := false
	for _, fe := range flight.Events {
		if fe.Kind != telemetry.FlightConfigChange || fe.Event == 0 {
			continue
		}
		var inSpans, inAudit bool
		for _, e := range spanIDs[fe.Event] {
			if e.Stage == telemetry.StageConfig {
				inSpans = true
			}
		}
		for _, r := range audit {
			if r.Event == fe.Event && r.Kind == "config" {
				inAudit = true
			}
		}
		if inSpans && inAudit {
			joined = true
		}
	}
	if !joined {
		t.Fatal("no EventID joins all three exported streams")
	}

	if flight.Appended != int64(len(flight.Events))+flight.Dropped {
		t.Fatalf("flight snapshot accounting broken: %+v", flight)
	}
}
