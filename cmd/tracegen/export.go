// Correlated-stream export: `tracegen -export DIR` replays the
// generated trace through a fully observed kernel and writes the three
// observability streams side by side —
//
//	DIR/spans.jsonl   telemetry span ring (telemetry.ReadJSONL[telemetry.Event])
//	DIR/audit.jsonl   audit-record ring (telemetry.ReadJSONL[telemetry.AuditRecord])
//	DIR/flight.json   flight-recorder snapshot (telemetry.FlightSnapshot)
//
// Every record carries the kernel's correlation EventID, so the files
// join offline on one key: the same joins /debug/timeline performs
// live, but against artifacts a bug report can attach.
package main

import (
	"io"
	"log/slog"
	"os"
	"path/filepath"

	pcc "repro"
	"repro/internal/filters"
	"repro/internal/kernel"
	"repro/internal/pktgen"
	"repro/internal/telemetry"
)

// exportStreams installs the paper filters into an instrumented
// kernel, delivers pkts through the vectorized dispatch path, and
// writes the three correlated streams into dir.
func exportStreams(dir string, pkts []pktgen.Packet) error {
	k := kernel.New()
	rec := telemetry.New()
	k.SetRecorder(rec)
	fr := telemetry.NewFlightRecorder(0)
	k.SetFlightRecorder(fr)
	ring := telemetry.NewAuditRing(0)
	k.SetAuditLog(slog.New(ring.Handler(nil)))

	var reqs []kernel.InstallRequest
	for _, f := range filters.All {
		cert, err := pcc.Certify(filters.Source(f), k.FilterPolicy(), nil)
		if err != nil {
			return err
		}
		reqs = append(reqs, kernel.InstallRequest{Owner: f.String(), Binary: cert.Binary})
	}
	for _, err := range k.InstallFilterBatch(reqs) {
		if err != nil {
			return err
		}
	}
	// A config change is the one operation that lands in all three
	// streams by construction (span + audit record + flight event on
	// one EventID), so the export always demonstrates a three-way join
	// even over a clean trace with no dispatch anomalies.
	if err := k.SetBackend(kernel.BackendCompiled); err != nil {
		return err
	}

	raw := make([][]byte, 0, 1024)
	for lo := 0; lo < len(pkts); lo += 1024 {
		hi := lo + 1024
		if hi > len(pkts) {
			hi = len(pkts)
		}
		raw = raw[:0]
		for _, p := range pkts[lo:hi] {
			raw = append(raw, p.Data)
		}
		if _, err := k.DeliverPackets(raw); err != nil {
			return err
		}
	}

	if err := writeTo(filepath.Join(dir, "spans.jsonl"), rec.Trace().WriteJSONL); err != nil {
		return err
	}
	if err := writeTo(filepath.Join(dir, "audit.jsonl"), ring.WriteJSONL); err != nil {
		return err
	}
	return writeTo(filepath.Join(dir, "flight.json"), fr.WriteJSON)
}

// writeTo creates path and streams write into it.
func writeTo(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
