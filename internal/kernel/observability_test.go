package kernel

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	pcc "repro"
	"repro/internal/alpha"
	"repro/internal/filters"
	"repro/internal/pktgen"
	"repro/internal/telemetry"
)

// TestProfiledCompiledKernelDifferential is the tentpole gate at the
// kernel layer: with profiling on, the compiled backend must produce
// the exact verdicts, cycle totals, and per-PC attribution of the
// profiled interpreter — over both the single-packet and the
// vectorized dispatch paths — because profiling no longer reroutes
// compiled dispatch to the interpreter.
func TestProfiledCompiledKernelDifferential(t *testing.T) {
	ki := New() // profiled interpreter (the reference)
	kc := New() // profiled threaded code
	ki.SetProfiling(true)
	kc.SetProfiling(true)
	installProfiledSet(t, ki)
	owners := installProfiledSet(t, kc)
	if err := kc.SetBackend(BackendCompiled); err != nil {
		t.Fatal(err)
	}
	for _, o := range owners {
		if compiledForm(kc, o) == nil {
			t.Fatalf("%q lost its compiled form under profiling", o)
		}
	}

	pkts := pktgen.Generate(400, pktgen.Config{Seed: 77})
	for _, p := range pkts[:200] {
		a1, err1 := ki.DeliverPacket(p)
		a2, err2 := kc.DeliverPacket(p)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if fmt.Sprint(a1) != fmt.Sprint(a2) {
			t.Fatalf("verdicts diverged: interp %v, compiled %v", a1, a2)
		}
	}
	raw := make([][]byte, 0, 200)
	for _, p := range pkts[200:] {
		raw = append(raw, p.Data)
	}
	b1, err1 := ki.DeliverPackets(raw)
	b2, err2 := kc.DeliverPackets(raw)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if fmt.Sprint(b1) != fmt.Sprint(b2) {
		t.Fatal("batch verdicts diverged between profiled backends")
	}

	si, sc := ki.Stats(), kc.Stats()
	if si.ExtensionCycles != sc.ExtensionCycles {
		t.Fatalf("cycle totals diverged: interp %d, compiled %d",
			si.ExtensionCycles, sc.ExtensionCycles)
	}
	var attributed int64
	for _, o := range owners {
		pi, ok1 := ki.FilterProfile(o)
		pc, ok2 := kc.FilterProfile(o)
		if !ok1 || !ok2 {
			t.Fatalf("missing profile for %q", o)
		}
		if !reflect.DeepEqual(pi.Profile, pc.Profile) {
			t.Fatalf("%q: per-PC attribution diverged between backends\ninterp:\n%s\ncompiled:\n%s",
				o, pi.AnnotatedListing(), pc.AnnotatedListing())
		}
		if pc.Profile.Runs != int64(len(pkts)) {
			t.Fatalf("%q: %d runs, want %d", o, pc.Profile.Runs, len(pkts))
		}
		attributed += pc.TotalCycles()
	}
	if attributed != sc.ExtensionCycles {
		t.Fatalf("compiled profiles attribute %d cycles, kernel charged %d",
			attributed, sc.ExtensionCycles)
	}
}

// TestObservabilityStressReconciles hammers the full observability
// stack — compiled-backend profiled batch dispatch concurrent with
// metrics scrapes, pprof exports, profile snapshots, and flight-
// recorder reads — then quiesces and reconciles every counter exactly
// against Stats. Meaningful mainly under -race.
func TestObservabilityStressReconciles(t *testing.T) {
	k := New()
	rec := telemetry.New()
	fr := telemetry.NewFlightRecorder(64)
	k.SetRecorder(rec)
	k.SetFlightRecorder(fr)
	owners := installProfiledSet(t, k)
	if err := k.SetBackend(BackendCompiled); err != nil {
		t.Fatal(err)
	}
	k.SetProfiling(true)

	pkts := pktgen.Generate(64, pktgen.Config{Seed: 9})
	raw := make([][]byte, len(pkts))
	for i, p := range pkts {
		raw[i] = p.Data
	}
	const workers, rounds = 4, 25

	var scrape, work sync.WaitGroup
	stop := make(chan struct{})
	scrape.Add(1)
	go func() { // concurrent scraper of every surface
		defer scrape.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := rec.WritePrometheus(io.Discard); err != nil {
				t.Error(err)
				return
			}
			if err := k.WriteFilterProfile(io.Discard); err != nil {
				t.Error(err)
				return
			}
			if err := fr.WriteJSON(io.Discard); err != nil {
				t.Error(err)
				return
			}
			for _, s := range k.FilterProfiles() {
				_ = s.TotalCycles()
			}
			_ = rec.Snapshot(true)
		}
	}()
	for w := 0; w < workers; w++ {
		work.Add(1)
		go func() {
			defer work.Done()
			for r := 0; r < rounds; r++ {
				if _, err := k.DeliverPackets(raw); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	work.Wait()
	close(stop)
	scrape.Wait()
	if t.Failed() {
		t.FailNow()
	}

	wantPkts := int64(workers * rounds * len(raw))
	st := k.Stats()
	if int64(st.Packets) != wantPkts {
		t.Fatalf("Packets = %d, want %d", st.Packets, wantPkts)
	}
	var attributed int64
	for _, o := range owners {
		snap, ok := k.FilterProfile(o)
		if !ok {
			t.Fatalf("no profile for %q", o)
		}
		if snap.Profile.Runs != wantPkts {
			t.Fatalf("%q: %d profiled runs, want %d", o, snap.Profile.Runs, wantPkts)
		}
		attributed += snap.TotalCycles()
	}
	if attributed != st.ExtensionCycles {
		t.Fatalf("profiles attribute %d cycles, kernel charged %d", attributed, st.ExtensionCycles)
	}

	snap := rec.Snapshot(false)
	if got := snap.Counters[MetricPackets]; got != wantPkts {
		t.Fatalf("%s = %d, want %d", MetricPackets, got, wantPkts)
	}
	var telCycles int64
	for _, v := range snap.Labeled[MetricFilterCycles] {
		telCycles += v
	}
	if telCycles != st.ExtensionCycles {
		t.Fatalf("telemetry cycle counters sum to %d, kernel charged %d", telCycles, st.ExtensionCycles)
	}
	fam := snap.LabeledHistograms[MetricFilterLatency]
	if len(fam) != len(owners) {
		t.Fatalf("latency family has %d owners, want %d", len(fam), len(owners))
	}
	for owner, h := range fam {
		if h.Count != wantPkts {
			t.Fatalf("latency histogram for %q observed %d runs, want %d", owner, h.Count, wantPkts)
		}
	}
}

// TestConfigChangeEvents: every kernel posture change must land in
// both the audit log (event=config with old/new values) and the
// flight recorder's timeline.
func TestConfigChangeEvents(t *testing.T) {
	k := New()
	var buf bytes.Buffer
	k.SetAuditLog(slog.New(slog.NewJSONHandler(&buf, nil)))
	fr := telemetry.NewFlightRecorder(32)
	k.SetFlightRecorder(fr)

	if err := k.SetBackend(BackendCompiled); err != nil {
		t.Fatal(err)
	}
	k.SetProfiling(true)
	k.SetLimits(pcc.DefaultLimits())
	k.SetQuarantine(QuarantineConfig{Threshold: 2, Base: time.Minute})
	k.SetQuarantine(QuarantineConfig{}) // back off

	evs := fr.Events()
	if len(evs) != 5 {
		t.Fatalf("flight recorder holds %d events, want 5 config changes: %+v", len(evs), evs)
	}
	var details []string
	for _, e := range evs {
		if e.Kind != telemetry.FlightConfigChange {
			t.Fatalf("unexpected event kind %q: %+v", e.Kind, e)
		}
		details = append(details, e.Detail)
	}
	joined := strings.Join(details, "\n")
	for _, want := range []string{
		"backend: interp -> compiled",
		"profiling: false -> true",
		"limits: ",
		"quarantine: disabled -> {Threshold:2",
		"-> disabled",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("flight timeline missing %q:\n%s", want, joined)
		}
	}

	log := buf.String()
	if got := strings.Count(log, `"event":"config"`); got != 5 {
		t.Fatalf("audit log has %d config events, want 5:\n%s", got, log)
	}
	for _, want := range []string{
		`"setting":"backend"`, `"old":"interp"`, `"new":"compiled"`,
		`"setting":"profiling"`, `"setting":"limits"`, `"setting":"quarantine"`,
	} {
		if !strings.Contains(log, want) {
			t.Errorf("audit log missing %s:\n%s", want, log)
		}
	}
}

// injectFilter publishes a program into the dispatch snapshot
// directly, bypassing validation — the only way to make dispatch
// fault, which validated filters cannot. It goes through the same
// copy-on-write publication as a real commit.
func injectFilter(k *Kernel, owner, src string) {
	prog := alpha.MustAssemble(src).Prog
	k.mu.Lock()
	defer k.mu.Unlock()
	ctr := newOwnerCounter(len(k.stats.shards))
	ins := &installed{ext: &pcc.Extension{Prog: prog}, accepts: ctr}
	k.publishLocked(k.table.Load().withFilter(owner, ins))
}

// TestFlightRecorderDispatchAnomalies: oversize fallbacks, memory
// faults, and fuel exhaustion on the dispatch path must each leave a
// flight event with the owner's identity, on both dispatch paths.
func TestFlightRecorderDispatchAnomalies(t *testing.T) {
	kindsOf := func(fr *telemetry.FlightRecorder) map[string]string {
		m := map[string]string{} // kind -> owner
		for _, e := range fr.Events() {
			m[e.Kind] = e.Owner
		}
		return m
	}

	t.Run("oversize", func(t *testing.T) {
		k := New()
		fr := telemetry.NewFlightRecorder(8)
		k.SetFlightRecorder(fr)
		installProfiledSet(t, k)
		big := make([]byte, maxPooledPacket+64)
		big[12], big[13] = 0x08, 0x00 // ethertype IP, so filters decode it
		if _, err := k.DeliverPacket(pktgen.Packet{Data: big}); err != nil {
			t.Fatal(err)
		}
		if _, err := k.DeliverPackets([][]byte{big}); err != nil {
			t.Fatal(err)
		}
		if got := fr.Appended(); got != 2 {
			t.Fatalf("oversize fallbacks recorded %d events, want 2", got)
		}
		if kinds := kindsOf(fr); len(kinds) != 1 || kinds[telemetry.FlightOversizePacket] != "" {
			t.Fatalf("unexpected events: %+v", fr.Events())
		}
	})

	t.Run("memory_fault", func(t *testing.T) {
		k := New()
		fr := telemetry.NewFlightRecorder(8)
		k.SetFlightRecorder(fr)
		injectFilter(k, "wild", "LDQ r0, 0(r4)\nRET") // r4 = 0: unmapped load
		p := pktgen.Generate(1, pktgen.Config{Seed: 1})[0]
		if _, err := k.DeliverPacket(p); err == nil {
			t.Fatal("wild load did not fault")
		}
		if _, err := k.DeliverPackets([][]byte{p.Data}); err == nil {
			t.Fatal("wild load did not fault on the batch path")
		}
		kinds := kindsOf(fr)
		if kinds[telemetry.FlightMemoryFault] != "wild" || fr.Appended() != 2 {
			t.Fatalf("memory fault not recorded with owner: %+v", fr.Events())
		}
	})

	t.Run("fuel_exhausted", func(t *testing.T) {
		k := New()
		fr := telemetry.NewFlightRecorder(8)
		k.SetFlightRecorder(fr)
		injectFilter(k, "spinner", "loop: BR loop")
		p := pktgen.Generate(1, pktgen.Config{Seed: 2})[0]
		if _, err := k.DeliverPacket(p); err == nil {
			t.Fatal("runaway loop did not exhaust fuel")
		}
		kinds := kindsOf(fr)
		if kinds[telemetry.FlightFuelExhausted] != "spinner" {
			t.Fatalf("fuel exhaustion not recorded with owner: %+v", fr.Events())
		}
	})
}

// TestBatchZeroAllocWithObservabilityOff pins the off switch: with no
// recorder, no flight recorder, and profiling off, the batch dispatch
// path must not allocate beyond its result rows — the new
// instrumentation must cost nothing when disabled.
func TestBatchZeroAllocWithObservabilityOff(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop Puts, distorting allocation counts")
	}
	bins := certAll(t)
	k := New()
	if err := k.InstallFilter("hot", bins[filters.Filter4]); err != nil {
		t.Fatal(err)
	}
	if err := k.SetBackend(BackendCompiled); err != nil {
		t.Fatal(err)
	}
	// A batch whose packets are all rejected keeps the result rows nil:
	// only the two result headers remain.
	var raw [][]byte
	for _, p := range pktgen.Generate(300, pktgen.Config{Seed: 11}) {
		owners, err := k.DeliverPacket(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(owners) == 0 {
			raw = append(raw, p.Data)
			if len(raw) == 16 {
				break
			}
		}
	}
	if len(raw) < 16 {
		t.Skip("not enough rejected packets in trace")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := k.DeliverPackets(raw); err != nil {
			t.Fatal(err)
		}
	})
	// DeliverPackets allocates its result slices (names + rows); with
	// every packet rejected that is two allocations.
	if allocs > 2 {
		t.Errorf("observability-off DeliverPackets allocates %.1f objects/op, want <= 2", allocs)
	}
}
