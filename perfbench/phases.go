package main

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/store"
)

// Phase names, which are also the workload names.
const (
	phaseDispatch = "serve_dispatch"
	phaseChurn    = "durable_churn"
	phaseRecover  = "cold_recover"
)

// budget ends a phase after n operations, or at the deadline when n is 0.
type budget struct {
	n        int
	deadline time.Time
}

func (b budget) done(i int) bool {
	if b.n > 0 {
		return i >= b.n
	}
	return !time.Now().Before(b.deadline)
}

func forSeconds(s float64) budget {
	return budget{deadline: time.Now().Add(time.Duration(s * float64(time.Second)))}
}

// tally counts operations checked against the oracle and those that
// failed or were wrong.
type tally struct {
	attempted int64
	failed    int64
	first     []string // the first few failures, for the report
}

func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if !ok {
		t.failed++
		if len(t.first) < 5 {
			t.first = append(t.first, fmt.Sprintf(format, args...))
		}
	}
}

// loop is the extent of one measured loop: the operations it completed
// and the wall time from its first operation's start to its last one's
// end, bookkeeping and oracle checks included.
type loop struct {
	n       int
	elapsed time.Duration
}

// perSecond is the loop's throughput in units per second, each
// operation counting per units.
func (l loop) perSecond(per int) float64 { return float64(l.n*per) / l.elapsed.Seconds() }

// perOp is the loop's mean wall time per operation.
func (l loop) perOp() time.Duration { return l.elapsed / time.Duration(max(1, l.n)) }

type dispatchResult struct {
	loop
	lat []time.Duration // per DeliverPackets call
}

// runDispatch is the serve_dispatch closed loop: one goroutine sends
// back-to-back 64-packet batches to the serving tenant and checks every
// verdict row against filters.Reference.
func runDispatch(fx *fixture, b budget, tr *tracer, phase string, tl *tally) dispatchResult {
	k := fx.serve.Kernel
	var res dispatchResult
	start := time.Now()
	for i := 0; !b.done(i); i++ {
		j := fx.batchNext % len(fx.batches)
		fx.batchNext++
		op := tr.op()
		root := tr.begin(op, -1, phase, "bench", "bench.batch")
		sp := tr.begin(op, root, phase, "kernel", "kernel.DeliverPackets")
		t0 := time.Now()
		rows, err := k.DeliverPackets(fx.batches[j])
		d := time.Since(t0)
		tr.end(sp)
		res.lat = append(res.lat, d)
		tl.check(err == nil && sameRows(rows, fx.expected[j]), "dispatch batch %d: err=%v", j, err)
		tr.end(root)
		res.n++
	}
	res.elapsed = time.Since(start)
	return res
}

type churnResult struct {
	loop                     // n counts install+uninstall pairs
	first, repeat, uninstall []time.Duration
}

// runChurn is one round of the durable_churn closed loop against the one
// churn tenant the set-up booted: one installer installs a fresh owner
// with a binary drawn uniformly by seed from the pool, then uninstalls
// the oldest live owner, every call acking only after its journal append,
// until ops operations are done. An install is "first" when it missed
// the kernel's proof cache (its binary is new to this kernel) and
// "repeat" otherwise.
func runChurn(fx *fixture, seed uint64, ops int, tr *tracer, phase string, tl *tally) churnResult {
	var res churnResult
	k := fx.churn.Kernel
	before := k.Stats()
	misses := before.CacheMisses
	start := time.Now()
	for i := 0; i < ops; i++ {
		n := fx.churnOps + i
		idx := int(mix(seed, uint64(n)) % uint64(len(fx.pool.Entries)))
		owner := fmt.Sprintf("c%07d", n)
		op := tr.op()
		root := tr.begin(op, -1, phase, "bench", "bench.churn_op")
		sp := tr.begin(op, root, phase, "kernel", "kernel.InstallFilter")
		t0 := time.Now()
		err := k.InstallFilter(owner, fx.pool.Entries[idx].Binary)
		d := time.Since(t0)
		tr.end(sp)
		tl.check(err == nil, "install %s: %v", owner, err)
		if m := k.Stats().CacheMisses; m != misses {
			misses = m
			res.first = append(res.first, d)
		} else {
			res.repeat = append(res.repeat, d)
		}
		if err == nil {
			fx.churnLive = append(fx.churnLive, owner)
			fx.churnBin[owner] = idx
		}
		old := fx.churnLive[0]
		fx.churnLive = fx.churnLive[1:]
		delete(fx.churnBin, old)
		sp = tr.begin(op, root, phase, "kernel", "kernel.UninstallFilter")
		t0 = time.Now()
		err = k.UninstallFilter(old)
		res.uninstall = append(res.uninstall, time.Since(t0))
		tr.end(sp)
		tl.check(err == nil, "uninstall %s: %v", old, err)
		res.n++
		tr.end(root)
	}
	res.elapsed = time.Since(start)
	fx.churnOps += res.n
	after := k.Stats()
	fx.cacheHits += after.CacheHits - before.CacheHits
	fx.cacheProbes += after.CacheHits + after.CacheMisses - before.CacheHits - before.CacheMisses

	// The table and the journal must both hold exactly the model's live
	// set, each journaled binary the one that was installed.
	want := append([]string(nil), fx.churnLive...)
	sort.Strings(want)
	tl.check(sameStrings(k.Owners(), want), "churn: Owners() differs from the live set")
	recs, _ := store.ReplayDir(fx.churnDir)
	folded := map[string][]byte{}
	for _, r := range recs {
		switch r.Kind {
		case store.KindInstall:
			folded[r.Owner] = r.Binary
		case store.KindUninstall:
			delete(folded, r.Owner)
		}
	}
	ok := len(folded) == len(want)
	for o, idx := range fx.churnBin {
		bin, found := folded[o]
		ok = ok && found && bytes.Equal(bin, fx.pool.Entries[idx].Binary)
	}
	tl.check(ok, "churn: journal's folded live set differs from the table")
	return res
}

type recoverResult struct {
	loop
	restarts []time.Duration // store.Open through the probe batch
}

// runRecover is the cold_recover loop: each restart opens the journal
// written at set-up, recovers it into a fresh serving tenant with an
// empty proof cache, and dispatches one probe batch.
func runRecover(fx *fixture, b budget, tr *tracer, phase string, tl *tally, gen *int) (res recoverResult) {
	start := time.Now()
	defer func() { res.elapsed = time.Since(start) }()
	for i := 0; !b.done(i); i++ {
		*gen++
		tn, err := fx.reg.Create(fmt.Sprintf("recover-%d", *gen))
		if err == nil {
			err = servePosture(tn)
		}
		if err != nil {
			tl.check(false, "recover tenant: %v", err)
			return res
		}
		k := tn.Kernel
		op := tr.op()
		root := tr.begin(op, -1, phase, "bench", "bench.restart")
		t0 := time.Now()
		sp := tr.begin(op, root, phase, "store", "store.Open")
		s, err := store.Open(fx.recoverDir, store.Options{CompactEvery: churnCompactEvery})
		tr.end(sp)
		if err != nil {
			tl.check(false, "store.Open: %v", err)
			tr.end(root)
			fx.reg.Remove(tn.Name)
			return res
		}
		sp = tr.begin(op, root, phase, "kernel", "kernel.Recover")
		rep, rerr := k.Recover(context.Background(), s)
		tr.end(sp)
		sp = tr.begin(op, root, phase, "kernel", "kernel.DeliverPackets")
		rows, derr := k.DeliverPackets(fx.probe)
		res.restarts = append(res.restarts, time.Since(t0))
		tr.end(sp)
		tl.check(rerr == nil && rep.Restored == len(fx.recoverOwner) && len(rep.Skipped) == 0,
			"recover: err=%v", rerr)
		tl.check(sameStrings(k.Owners(), fx.recoverOwner), "recover: Owners() differs from the folded journal")
		tl.check(derr == nil && sameRows(rows, fx.probeWant), "recover probe: err=%v", derr)
		tr.end(root)
		s.Close()
		fx.reg.Remove(tn.Name)
		res.n++
	}
	return res
}
