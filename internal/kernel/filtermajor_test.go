package kernel

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/filters"
	"repro/internal/pktgen"
	"repro/internal/telemetry"
)

// shapePackets builds a mixed packet pool for the batch-shape tests:
// generated traffic (unaligned lengths among it), TCP packets whose
// destination port lies in the unaligned final word — so Filter 4
// touches the deferred tail and takes the tail-fault retry — and
// packets past maxPooledPacket, which take the allocating fallback.
func shapePackets(n int) [][]byte {
	gen := pktgen.Generate(n, pktgen.Config{Seed: 41, OptionsPerMille: 200})
	out := make([][]byte, n)
	for i, p := range gen {
		switch {
		case i%29 == 28:
			big := make([]byte, maxPooledPacket+1+i)
			copy(big, p.Data)
			out[i] = big
		case i%7 == 3:
			out[i] = tailPortPacket(78+i%2, i%3 == 0)
		default:
			out[i] = p.Data
		}
	}
	return out
}

// tailPortPacket is an IPv4/TCP frame of length n (78 or 79) with a
// maximal IP header (IHL 15), so the TCP destination port sits at
// bytes 76..77: inside the packet's unaligned final word. Port 80
// when http.
func tailPortPacket(n int, http bool) []byte {
	p := make([]byte, n)
	p[12], p[13] = 0x08, 0x00 // IPv4
	p[14] = 0x4F              // version 4, IHL 15
	p[23] = 6                 // TCP
	if http {
		p[76], p[77] = 0, 80
	} else {
		p[76], p[77] = 0x1F, 0x90 // 8080
	}
	return p
}

// referenceRow is the verdict row the pure-Go reference gives a packet
// for the proc-N paper-filter owners, sorted; nil when none accepts.
func referenceRow(p []byte) []string {
	var row []string
	for _, f := range filters.All {
		if filters.Reference(f, p) {
			row = append(row, fmt.Sprintf("proc-%d", f))
		}
	}
	return row
}

// TestBatchShapesMatchReference is the batch-shape differential: over
// batches of 0, 1, 63, 64, 65 and 130 packets mixing unaligned tails,
// tail-reading filters, and oversized packets, with two paper filters
// compiled and two interpreted, every row equals the reference's, and
// with a recorder every owner's latency histogram counts exactly one
// observation per run — in both sweep orders (recorder on:
// filter-major, off: packet-major), with profiling off (deferred
// tails, tail-fault retry) and on (tails filled in the prefetch sweep).
func TestBatchShapesMatchReference(t *testing.T) {
	shapes := []int{0, 1, 63, 64, 65, 130}
	total := 0
	for _, n := range shapes {
		total += n
	}
	pool := shapePackets(total)
	for _, c := range []struct{ timed, profiling bool }{
		{true, false}, {true, true}, {false, false}, {false, true},
	} {
		timed, profiling := c.timed, c.profiling
		t.Run(fmt.Sprintf("timed=%t/profiling=%t", timed, profiling), func(t *testing.T) {
			k := New()
			rec := telemetry.New()
			if timed {
				k.SetRecorder(rec)
			}
			if err := k.SetBackend(BackendCompiled); err != nil {
				t.Fatal(err)
			}
			k.SetProfiling(profiling)
			var owners []string
			for _, f := range filters.All {
				owner := fmt.Sprintf("proc-%d", f)
				be := BackendCompiled
				if f == filters.Filter1 || f == filters.Filter3 {
					be = BackendInterp
				}
				if err := k.InstallFilterWithBackend(context.Background(), owner, certFilter(t, k, f), be); err != nil {
					t.Fatal(err)
				}
				owners = append(owners, owner)
			}

			off := 0
			for _, n := range shapes {
				batch := pool[off : off+n]
				off += n
				rows, err := k.DeliverPackets(batch)
				if err != nil {
					t.Fatalf("batch of %d: %v", n, err)
				}
				if len(rows) != n {
					t.Fatalf("batch of %d returned %d rows", n, len(rows))
				}
				for pi, p := range batch {
					if want := referenceRow(p); !reflect.DeepEqual(rows[pi], want) {
						t.Fatalf("batch of %d, packet %d (len %d): got %v, want %v", n, pi, len(p), rows[pi], want)
					}
				}
			}

			runs := int64(total)
			st := k.Stats()
			if st.Packets != total {
				t.Fatalf("Packets = %d, want %d", st.Packets, total)
			}
			fam := rec.Snapshot(false).LabeledHistograms[MetricFilterLatency]
			for _, o := range owners {
				if got := fam[o].Count; timed && got != runs {
					t.Errorf("%s: latency histogram counts %d runs, want %d", o, got, runs)
				}
				if sum := fam[o].SumSeconds; timed && sum <= 0 {
					t.Errorf("%s: latency histogram sum %v s, want > 0", o, sum)
				}
			}
			if profiling {
				var attributed int64
				for _, o := range owners {
					snap, ok := k.FilterProfile(o)
					if !ok || snap.Profile.Runs != runs {
						t.Fatalf("%s: profile %v, want %d runs", o, snap, runs)
					}
					attributed += snap.TotalCycles()
				}
				if attributed != st.ExtensionCycles {
					t.Fatalf("profiles attribute %d cycles, kernel charged %d", attributed, st.ExtensionCycles)
				}
			}
		})
	}
}

// TestMidBatchFaultAccounting pins what a fault leaves behind (see the
// DeliverPackets doc comment): every filter ran over the tiles before
// the faulting packet's; in that tile, with a recorder (filter-major),
// the filters before the faulting one ran over every packet and the
// faulting one over the packets before the fault, and without one
// (packet-major) every filter ran over the packets before the fault
// and the filters before the faulting one over it. The faulting
// filter's profile and histogram count the faulted run too; nothing
// else ran; and the batch delivers no packet.
func TestMidBatchFaultAccounting(t *testing.T) {
	for _, c := range []struct{ n, faultAt int }{
		{20, 5},    // one tile
		{130, 100}, // third tile untouched
	} {
		for _, timed := range []bool{true, false} {
			t.Run(fmt.Sprintf("n=%d/timed=%t", c.n, timed), func(t *testing.T) {
				faultAccounting(t, c.n, c.faultAt, timed)
			})
		}
	}
}

func faultAccounting(t *testing.T, n, faultAt int, timed bool) {
	batch := make([][]byte, n)
	for i, p := range pktgen.Generate(n, pktgen.Config{Seed: 43, IPPerMille: 1000}) {
		batch[i] = p.Data
		if i < faultAt {
			// condFaultSrc runs clean on a zero first word; the paper
			// filters never read bytes 0..7.
			clear(batch[i][:8])
		}
	}
	// How far the filters before and after the faulting one got.
	before, after := faultAt+1, faultAt
	if timed {
		tileStart := faultAt / dispatchTile * dispatchTile
		before, after = min(tileStart+dispatchTile, n), tileStart
	}

	k := New()
	rec := telemetry.New()
	if timed {
		k.SetRecorder(rec)
	}
	if err := k.SetBackend(BackendCompiled); err != nil {
		t.Fatal(err)
	}
	installPaperFilters(t, k)
	// "proc-3x" sorts between proc-3 and proc-4.
	injectFaultyCompiled(t, k, "proc-3x", condFaultSrc)
	k.SetProfiling(true)

	// Reference accounting from kernels that cannot fault, each over
	// the packets its filters ran over.
	ref := func(pkts [][]byte, fs ...filters.Filter) *Kernel {
		r := New()
		if err := r.SetBackend(BackendCompiled); err != nil {
			t.Fatal(err)
		}
		for _, f := range fs {
			if err := r.InstallFilter(fmt.Sprintf("proc-%d", f), certFilter(t, r, f)); err != nil {
				t.Fatal(err)
			}
		}
		if len(fs) == 0 {
			injectFaultyCompiled(t, r, "proc-3x", condFaultSrc)
		}
		if _, err := r.DeliverPackets(pkts); err != nil {
			t.Fatal(err)
		}
		return r
	}
	refBefore := ref(batch[:before], filters.Filter1, filters.Filter2, filters.Filter3)
	prefix := ref(batch[:faultAt])
	refAfter := ref(batch[:after], filters.Filter4)

	rows, err := k.DeliverPackets(batch)
	if err == nil || rows != nil {
		t.Fatalf("faulting batch returned rows %v, err %v", rows, err)
	}
	st := k.Stats()
	if st.Packets != 0 {
		t.Fatalf("Packets = %d after a faulted batch, want 0", st.Packets)
	}
	want := refBefore.Stats().ExtensionCycles + prefix.Stats().ExtensionCycles + refAfter.Stats().ExtensionCycles
	if st.ExtensionCycles != want {
		t.Fatalf("ExtensionCycles = %d, want %d (completed runs only)", st.ExtensionCycles, want)
	}
	wantAccepts := refBefore.Accepts()
	for o, v := range refAfter.Accepts() {
		wantAccepts[o] = v
	}
	wantAccepts["proc-3x"] = 0
	if got := k.Accepts(); !reflect.DeepEqual(got, wantAccepts) {
		t.Fatalf("accepts = %v, want %v", got, wantAccepts)
	}

	wantRuns := map[string]int64{
		"proc-1": int64(before), "proc-2": int64(before), "proc-3": int64(before),
		"proc-3x": int64(faultAt + 1),
		"proc-4":  int64(after),
	}
	fam := rec.Snapshot(false).LabeledHistograms[MetricFilterLatency]
	for o, want := range wantRuns {
		if got := fam[o].Count; timed && got != want {
			t.Errorf("%s: latency histogram counts %d runs, want %d", o, got, want)
		}
		snap, ok := k.FilterProfile(o)
		if !ok || snap.Profile.Runs != want {
			t.Errorf("%s: profile %v, want %d runs", o, snap, want)
		}
	}
	// The faulted run's retired prefix (the load and the branch before
	// the faulting load) is attributed on top of the clean runs.
	faulty, _ := k.FilterProfile("proc-3x")
	if clean := prefix.Stats().ExtensionCycles; faulty.TotalCycles() <= clean {
		t.Fatalf("proc-3x profile attributes %d cycles, want more than its %d clean-run cycles", faulty.TotalCycles(), clean)
	}

	// The one-packet path shares the loop and the contract.
	if _, err := k.DeliverPacket(pktgen.Packet{Data: batch[faultAt]}); err == nil {
		t.Fatal("faulting DeliverPacket returned no error")
	}
	if st := k.Stats(); st.Packets != 0 {
		t.Fatalf("Packets = %d after a faulted delivery, want 0", st.Packets)
	}
}

// TestBackendFallbackOncePerTransition is the regression test for the
// backend_fallback flood: a demoted filter dispatches interpreted for
// as long as its breaker stays open, but the flight ring records the
// fallback once, at the demotion, so the fault that caused it is not
// evicted by a thousand batches. A filter installed interpreted under
// the compiled backend likewise records one event, at install.
func TestBackendFallbackOncePerTransition(t *testing.T) {
	k := New()
	fr := telemetry.NewFlightRecorder(telemetry.DefaultFlightCapacity)
	k.SetFlightRecorder(fr)
	if err := k.SetBackend(BackendCompiled); err != nil {
		t.Fatal(err)
	}
	k.SetBreaker(BreakerConfig{Threshold: 1, Base: time.Hour, Max: time.Hour})
	injectFaultyCompiled(t, k, "flaky", condFaultSrc)
	if err := k.InstallFilterWithBackend(context.Background(), "interp", certFilter(t, k, filters.Filter1), BackendInterp); err != nil {
		t.Fatal(err)
	}

	if _, err := k.DeliverPackets([][]byte{faultPkt.Data}); err == nil {
		t.Fatal("faulting batch returned no error")
	}
	if compiledForm(k, "flaky") {
		t.Fatal("breaker did not demote the faulting filter")
	}
	clean := [][]byte{cleanPkt.Data, cleanPkt.Data}
	for i := 0; i < 1000; i++ {
		if _, err := k.DeliverPackets(clean); err != nil {
			t.Fatal(err)
		}
	}

	kinds := map[string]map[string]int{}
	for _, e := range fr.Events() {
		if kinds[e.Owner] == nil {
			kinds[e.Owner] = map[string]int{}
		}
		kinds[e.Owner][e.Kind]++
	}
	if kinds["flaky"][telemetry.FlightMemoryFault] != 1 {
		t.Fatalf("fault event evicted or duplicated: %v", kinds["flaky"])
	}
	for _, o := range []string{"flaky", "interp"} {
		if n := kinds[o][telemetry.FlightBackendFallback]; n != 1 {
			t.Fatalf("%s: %d backend_fallback events, want 1 (events: %v)", o, n, kinds[o])
		}
	}
}

// TestTailWordMappedOncePerPacket: an unaligned packet's tail stays
// unmapped until materialized; after that every later run over the
// same packet maps its pooled tail word (zero-padded) without another
// copy, an aligned packet maps no tail, and release unmaps both.
func TestTailWordMappedOncePerPacket(t *testing.T) {
	env := newPacketEnv()
	pkts := [][]byte{tailPortPacket(78, true), make([]byte, 64)}
	env.prepare(len(pkts), 1)
	env.setPacket(0, pkts[0])
	if !env.tailPending || env.tail.Size() != 0 {
		t.Fatalf("unfilled tail: pending %t, size %d", env.tailPending, env.tail.Size())
	}
	env.materializeTail(0, pkts[0])
	env.setPacket(1, pkts[1])
	if env.tailPending || env.tail.Size() != 0 {
		t.Fatal("aligned packet left a tail mapped")
	}
	env.setPacket(0, pkts[0])
	if env.tailPending || env.tail.Size() != 8 || env.tail.Base != packetBase+72 {
		t.Fatalf("materialized tail not remapped: pending %t, size %d, base %#x", env.tailPending, env.tail.Size(), env.tail.Base)
	}
	if got := env.tail.Bytes(); !reflect.DeepEqual(got, append(append([]byte(nil), pkts[0][72:]...), 0, 0)) {
		t.Fatalf("tail word %v", got)
	}
	env.releasePacket()
	if env.pkt.Size() != 0 || env.tail.Size() != 0 {
		t.Fatal("released environment still maps a packet")
	}
}
