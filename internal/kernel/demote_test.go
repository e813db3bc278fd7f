package kernel

import (
	"bytes"
	"errors"
	"log/slog"
	"strings"
	"sync"
	"testing"

	pcc "repro"
	"repro/internal/alpha"
	"repro/internal/filters"
	"repro/internal/machine"
	"repro/internal/pktgen"
	"repro/internal/telemetry"
)

// condFaultSrc faults iff the packet's first quadword is nonzero: the
// clean path is a plain RET, the hostile path loads through r4 (the
// scratch register the dispatch preamble zeroes), which is unmapped.
// This is the demotion tests' steerable fault: the packet decides
// whether this delivery is clean or a memory fault.
const condFaultSrc = "LDQ r5, 0(r1)\nBEQ r5, ok\nLDQ r0, 0(r4)\nok: RET"

// injectFaultyCompiled publishes an unvalidated program WITH a
// compiled form, bypassing the validation pipeline: demotion handles
// dispatch faults, and a validated filter cannot be made to fault on
// demand.
func injectFaultyCompiled(t *testing.T, k *Kernel, owner, src string) {
	t.Helper()
	prog := alpha.MustAssemble(src).Prog
	c, err := machine.Compile(prog, &machine.DEC21064)
	if err != nil {
		t.Fatal(err)
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	ctr := newOwnerCounter(len(k.stats.shards))
	ins := &installed{ext: &pcc.Extension{Prog: prog}, accepts: ctr, compiled: c}
	k.publishLocked(k.table.Load().withFilter(owner, ins))
}

// compiledForm returns the compiled program in owner's published table
// slot, nil when the slot has none or there is no slot.
func compiledForm(k *Kernel, owner string) *machine.Compiled {
	tb := k.table.Load()
	if i, ok := tb.find(owner); ok {
		return tb.slots[i].c
	}
	return nil
}

var (
	cleanPkt = pktgen.Packet{Data: make([]byte, 16)}
	faultPkt = pktgen.Packet{Data: append([]byte{1}, make([]byte, 15)...)}
)

// demoteRig is a kernel with every sink demotion writes to attached.
// The audit buffer is read only between deliveries.
type demoteRig struct {
	k     *Kernel
	rec   *telemetry.Recorder
	fr    *telemetry.FlightRecorder
	audit bytes.Buffer
}

func newDemoteRig() *demoteRig {
	r := &demoteRig{k: New(), rec: telemetry.New(), fr: telemetry.NewFlightRecorder(1024)}
	r.k.SetRecorder(r.rec)
	r.k.SetFlightRecorder(r.fr)
	r.k.SetAuditLog(slog.New(slog.NewJSONHandler(&r.audit, nil)))
	return r
}

// counts reports the demotion trail for owner: backend_fallback flight
// events, demote audit records, and the demotions counter.
func (r *demoteRig) counts(t *testing.T, owner string) (flights, audits int, counter int64) {
	t.Helper()
	for _, e := range r.fr.Events() {
		if e.Owner == owner && e.Kind == telemetry.FlightBackendFallback {
			flights++
		}
	}
	for _, m := range auditRecords(t, &r.audit) {
		if m["event"] == "demote" && m["owner"] == owner {
			audits++
		}
	}
	return flights, audits, r.rec.Snapshot(false).Counters[MetricDemotions]
}

// deliverFault runs faultPkt through one of the two dispatch entry
// points.
func deliverFault(k *Kernel, batch bool) error {
	if batch {
		_, err := k.DeliverPackets([][]byte{cleanPkt.Data, faultPkt.Data})
		return err
	}
	_, err := k.DeliverPacket(faultPkt)
	return err
}

// TestDemoteOnFirstCompiledFault: the first fault of a compiled form
// returns the same error as any dispatch fault and leaves the filter
// installed without its compiled form, with one flight event, one audit
// record and one counter increment. A later fault of the now-interpreted
// filter still errors but publishes nothing and records no demotion.
func TestDemoteOnFirstCompiledFault(t *testing.T) {
	for _, batch := range []bool{false, true} {
		name := "DeliverPacket"
		if batch {
			name = "DeliverPackets"
		}
		t.Run(name, func(t *testing.T) {
			r := newDemoteRig()
			k := r.k
			injectFaultyCompiled(t, k, "flaky", condFaultSrc)
			if compiledForm(k, "flaky") == nil {
				t.Fatal("injected filter has no compiled form")
			}
			if _, _, n := r.counts(t, "flaky"); n != 0 {
				t.Fatalf("demotions counter = %d before any fault, want 0", n)
			}

			err := deliverFault(k, batch)
			var mf *machine.MemFault
			if err == nil || !errors.As(err, &mf) ||
				!strings.HasPrefix(err.Error(), `kernel: validated filter "flaky" faulted: `) {
				t.Fatalf("fault error = %v, want the validated-filter memory fault", err)
			}
			if compiledForm(k, "flaky") != nil {
				t.Fatal("compiled form still published after the fault")
			}
			if got := k.Owners(); len(got) != 1 || got[0] != "flaky" {
				t.Fatalf("owners after demotion = %v, want the filter still installed", got)
			}
			if f, a, n := r.counts(t, "flaky"); f != 1 || a != 1 || n != 1 {
				t.Fatalf("demotion trail: %d backend_fallback, %d demote audits, counter %d; want 1, 1, 1", f, a, n)
			}

			// The filter now runs interpreted: clean traffic still flows,
			// and a fault aborts the delivery but has nothing to demote.
			if _, err := k.DeliverPacket(cleanPkt); err != nil {
				t.Fatal(err)
			}
			gen := k.table.Load().gen
			if err := deliverFault(k, batch); err == nil {
				t.Fatal("interpreted fault returned no error")
			}
			if g := k.table.Load().gen; g != gen {
				t.Fatalf("interpreted fault published a snapshot (gen %d -> %d)", gen, g)
			}
			if f, a, n := r.counts(t, "flaky"); f != 1 || a != 1 || n != 1 {
				t.Fatalf("after the interpreted fault: %d backend_fallback, %d demote audits, counter %d; want 1, 1, 1", f, a, n)
			}
		})
	}
}

// TestDemoteConcurrent: goroutines faulting the same compiled form at
// once, over both entry points, demote it exactly once; under -race it
// also checks the demotion path's synchronization. Each round
// republishes a fresh compiled form, so every round must add exactly
// one demotion and two publications (the inject and the demotion).
func TestDemoteConcurrent(t *testing.T) {
	const rounds, workers = 10, 8
	r := newDemoteRig()
	k := r.k
	gen0 := k.table.Load().gen
	for round := 1; round <= rounds; round++ {
		injectFaultyCompiled(t, k, "flaky", condFaultSrc)
		start := make(chan struct{})
		errs := make(chan error, workers)
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(batch bool) {
				defer wg.Done()
				<-start
				errs <- deliverFault(k, batch)
			}(g%2 == 1)
		}
		close(start)
		wg.Wait()
		close(errs)
		for err := range errs {
			if err == nil {
				t.Fatal("a concurrent fault returned no error")
			}
		}
		if compiledForm(k, "flaky") != nil {
			t.Fatalf("round %d: compiled form still published", round)
		}
		if f, a, n := r.counts(t, "flaky"); f != round || a != round || n != int64(round) {
			t.Fatalf("round %d: %d backend_fallback, %d demote audits, counter %d; want %d each",
				round, f, a, n, round)
		}
		if g := k.table.Load().gen; g != gen0+2*uint64(round) {
			t.Fatalf("round %d: gen %d, want %d (one inject, one demotion per round)", round, g, gen0+2*uint64(round))
		}
	}
	k.Quiesce()
}

// TestDemoteStickyUntilReinstall: a demoted filter stays interpreted
// through clean traffic until it is reinstalled, and the reinstall
// (under the compiled backend) publishes a compiled form again.
func TestDemoteStickyUntilReinstall(t *testing.T) {
	k := New()
	if err := k.SetBackend(BackendCompiled); err != nil {
		t.Fatal(err)
	}
	injectFaultyCompiled(t, k, "flaky", condFaultSrc)
	if err := deliverFault(k, false); err == nil {
		t.Fatal("faulting delivery returned no error")
	}
	for i := 0; i < 10; i++ {
		if _, err := k.DeliverPackets([][]byte{cleanPkt.Data, cleanPkt.Data}); err != nil {
			t.Fatal(err)
		}
	}
	if compiledForm(k, "flaky") != nil {
		t.Fatal("demotion did not stick through clean traffic")
	}
	if err := k.InstallFilter("flaky", certFilter(t, k, filters.Filter1)); err != nil {
		t.Fatal(err)
	}
	if compiledForm(k, "flaky") == nil {
		t.Fatal("reinstall did not restore a compiled form")
	}
}

// TestDemoteSetBackendRestores: SetBackend(BackendCompiled) recompiles
// a demoted filter, and the recompiled form is demoted again by its
// own next fault.
func TestDemoteSetBackendRestores(t *testing.T) {
	r := newDemoteRig()
	k := r.k
	injectFaultyCompiled(t, k, "flaky", condFaultSrc)
	if err := deliverFault(k, true); err == nil {
		t.Fatal("faulting batch returned no error")
	}
	if compiledForm(k, "flaky") != nil {
		t.Fatal("not demoted")
	}
	if err := k.SetBackend(BackendCompiled); err != nil {
		t.Fatal(err)
	}
	if compiledForm(k, "flaky") == nil {
		t.Fatal("SetBackend(BackendCompiled) did not restore the compiled form")
	}
	if err := deliverFault(k, true); err == nil {
		t.Fatal("faulting batch returned no error")
	}
	if compiledForm(k, "flaky") != nil {
		t.Fatal("recompiled form not demoted by its fault")
	}
	if f, a, n := r.counts(t, "flaky"); f != 2 || a != 2 || n != 2 {
		t.Fatalf("%d backend_fallback, %d demote audits, counter %d; want 2 each", f, a, n)
	}
}
