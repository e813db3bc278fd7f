package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"path/filepath"
	"runtime"
	"time"

	pcc "repro"
	"repro/internal/alpha"
	"repro/internal/filters"
	"repro/internal/kernel"
	"repro/internal/lf"
	"repro/internal/logic"
	"repro/internal/machine"
	"repro/internal/pccbin"
	"repro/internal/pktgen"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/vcgen"
)

// ledgerSizes fixes the traced run's per-layer probes.
type ledgerSizes struct {
	Rounds      int // interleaved rounds of the dispatch ledger
	Batches     int // batches per ledger configuration per round
	Singles     int // DeliverPacket calls
	Validations int // cold validations per paper filter; replays of the journal
	Appends     int // fsynced store appends
	HitProbes   int // cache-hit installs per table size
	Large       int // the large table size (and the churned history)
	Mid         int // the mid table size (and the compacted live set)
}

// dispatchStep is one configuration of the dispatch ledger. Each step
// adds one thing to the previous one, so the difference of neighbours
// is the cost of that thing.
type dispatchStep struct {
	name string
	k    *kernel.Kernel
	want func(batch int) [][]string
}

// dispatchLedger measures per-packet dispatch cost from an empty plain
// kernel up to the serving posture, one increment at a time, with the
// configurations interleaved round by round.
func dispatchLedger(fx *fixture, ls ledgerSizes, tr *tracer, tl *tally, rep *report) error {
	paperReqs := make([]kernel.InstallRequest, 0, 4)
	retReqs := make([]kernel.InstallRequest, 0, 4)
	for _, f := range filters.All {
		paperReqs = append(paperReqs, kernel.InstallRequest{Owner: f.String(), Binary: fx.pool.paper(f).Binary})
		retReqs = append(retReqs, kernel.InstallRequest{Owner: fmt.Sprintf("ret%d", f), Binary: fx.pool.Ret})
	}
	none := func(int) [][]string { return make([][]string, batchSize) }
	paper := func(b int) [][]string { return fx.expected[b] }
	mk := func(reqs []kernel.InstallRequest, observe func(k *kernel.Kernel)) (*kernel.Kernel, error) {
		k := kernel.New()
		if err := k.SetBackend(kernel.BackendCompiled); err != nil {
			return nil, err
		}
		observe(k)
		for i, err := range k.InstallFilterBatch(reqs) {
			if err != nil {
				return nil, fmt.Errorf("ledger install %s: %w", reqs[i].Owner, err)
			}
		}
		return k, nil
	}
	prof := func(k *kernel.Kernel) { k.SetProfiling(true) }
	rec := func(k *kernel.Kernel) { prof(k); k.SetRecorder(telemetry.New()) }
	win := func(k *kernel.Kernel) {
		prof(k)
		k.SetRecorder(telemetry.NewWith(telemetry.Options{Window: &telemetry.WindowOptions{}}))
	}
	serve := func(k *kernel.Kernel) {
		win(k)
		k.SetFlightRecorder(telemetry.NewFlightRecorder(0))
		ring := telemetry.NewAuditRing(0)
		k.SetAuditLog(slog.New(ring.Handler(slog.NewJSONHandler(io.Discard, nil))).With("tenant", "ledger"))
		k.SetQuarantine(serveQuarantine)
	}
	plain := func(*kernel.Kernel) {}
	specs := []struct {
		name    string
		reqs    []kernel.InstallRequest
		observe func(*kernel.Kernel)
		want    func(int) [][]string
	}{
		{"empty", nil, plain, none},
		{"ret4", retReqs, plain, none},
		{"paper", paperReqs, plain, paper},
		{"prof", paperReqs, prof, paper},
		{"recorder", paperReqs, rec, paper},
		{"window", paperReqs, win, paper},
		{"serve", paperReqs, serve, paper},
	}
	steps := make([]dispatchStep, len(specs))
	for i, s := range specs {
		k, err := mk(s.reqs, s.observe)
		if err != nil {
			return err
		}
		steps[i] = dispatchStep{name: s.name, k: k, want: s.want}
	}

	nsPerPkt := make([][]float64, len(steps))
	for r := 0; r < ls.Rounds; r++ {
		for i, st := range steps {
			phase := "ledger.dispatch." + st.name
			var busy time.Duration
			for j := 0; j < ls.Batches; j++ {
				b := j % len(fx.batches)
				op := tr.op()
				sp := tr.begin(op, -1, phase, "kernel", "kernel.DeliverPackets")
				t0 := time.Now()
				rows, err := st.k.DeliverPackets(fx.batches[b])
				busy += time.Since(t0)
				tr.end(sp)
				tl.check(err == nil && sameRows(rows, st.want(b)), "ledger %s batch %d: %v", st.name, b, err)
			}
			nsPerPkt[i] = append(nsPerPkt[i], float64(busy.Nanoseconds())/float64(ls.Batches*batchSize))
		}
	}
	t := make(map[string]float64, len(steps))
	for i, st := range steps {
		t[st.name] = median(nsPerPkt[i])
	}
	n := ls.Rounds * ls.Batches
	perRun := func(hi, lo string) float64 { return (t[hi] - t[lo]) / 4 }
	rep.add("kernel.dispatch.pkt_fixed_ns", t["empty"], "ns", n)
	rep.add("kernel.dispatch.run_fixed_ns", perRun("ret4", "empty"), "ns", n)
	rep.add("machine.exec_ns_per_run", perRun("paper", "ret4"), "ns", n)
	rep.add("telemetry.prof_ns_per_run", perRun("prof", "paper"), "ns", n)
	rep.add("telemetry.recorder_ns_per_run", perRun("recorder", "prof"), "ns", n)
	rep.add("telemetry.window_ns_per_run", perRun("window", "recorder"), "ns", n)
	rep.add("telemetry.flight_audit_ns_per_run", perRun("serve", "window"), "ns", n)

	// Simulated cycles are an exact count: the plain paper kernel ran a
	// fixed sequence of batches.
	st := steps[2].k.Stats()
	rep.add("machine.cycles_per_pkt", float64(st.ExtensionCycles)/float64(st.Packets), "cycles", st.Packets)

	if err := directExec(fx, ls, tr, tl, rep); err != nil {
		return err
	}

	// Per-packet entry point on the serving tenant.
	k := fx.serve.Kernel
	var single []time.Duration
	for i := 0; i < ls.Singles; i++ {
		b, p := (i/batchSize)%len(fx.batches), i%batchSize
		op := tr.op()
		sp := tr.begin(op, -1, "ledger.single", "kernel", "kernel.DeliverPacket")
		t0 := time.Now()
		acc, err := k.DeliverPacket(pktgen.Packet{Data: fx.batches[b][p]})
		single = append(single, time.Since(t0))
		tr.end(sp)
		tl.check(err == nil && sameStrings(acc, fx.expected[b][p]), "DeliverPacket: %v", err)
	}
	rep.add("kernel.dispatch.single_ns_per_pkt", median(scaled(single, time.Nanosecond)), "ns", len(single))

	// Heap allocations per serving batch, counted by the runtime.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for j := 0; j < ls.Batches; j++ {
		k.DeliverPackets(fx.batches[j%len(fx.batches)])
	}
	runtime.ReadMemStats(&m1)
	rep.add("kernel.dispatch.allocs_per_batch", float64(m1.Mallocs-m0.Mallocs)/float64(ls.Batches), "count", ls.Batches)
	return nil
}

// directExec times machine.Compiled.Run outside the kernel: the paper
// filters' mean run time minus the ledger filter's, the cross-check of
// machine.exec_ns_per_run.
func directExec(fx *fixture, ls ledgerSizes, tr *tracer, tl *tally, rep *report) error {
	type prog struct {
		c   *machine.Compiled
		ref func([]byte) bool
	}
	var progs []prog
	for _, f := range filters.All {
		c, err := machine.Compile(filters.Prog(f), &machine.DEC21064)
		if err != nil {
			return err
		}
		progs = append(progs, prog{c, fx.pool.paper(f).M.accepts})
	}
	c, err := machine.Compile(alpha.MustAssemble(retSource).Prog, &machine.DEC21064)
	if err != nil {
		return err
	}
	progs = append(progs, prog{c, func([]byte) bool { return false }})

	var states []*machine.State
	var regs [][alpha.NumRegs]uint64
	var pkts [][]byte
	for b := 0; b < 4 && b < len(fx.batches); b++ {
		for _, p := range fx.batches[b] {
			s := filters.Env{}.NewState(p)
			states = append(states, s)
			regs = append(regs, s.R)
			pkts = append(pkts, p)
		}
	}
	const reps = 20
	perRun := make([][]float64, len(progs))
	for r := 0; r < ls.Rounds; r++ {
		for i, p := range progs {
			op := tr.op()
			sp := tr.begin(op, -1, "ledger.direct", "machine", "machine.Compiled.Run")
			t0 := time.Now()
			for k := 0; k < reps; k++ {
				for j, s := range states {
					s.R, s.PC = regs[j], 0
					p.c.Run(s, machine.Unchecked, 1<<20)
				}
			}
			d := time.Since(t0)
			tr.end(sp)
			perRun[i] = append(perRun[i], float64(d.Nanoseconds())/float64(reps*len(states)))
		}
	}
	for i, p := range progs {
		for j, s := range states {
			s.R, s.PC = regs[j], 0
			res, err := p.c.Run(s, machine.Unchecked, 1<<20)
			tl.check(err == nil && (res.Ret != 0) == p.ref(pkts[j]), "Compiled.Run verdict %d/%d: %v", i, j, err)
		}
	}
	paper := 0.0
	for i := 0; i < 4; i++ {
		paper += median(perRun[i]) / 4
	}
	rep.add("machine.exec_ns_per_run.direct", paper-median(perRun[4]), "ns", ls.Rounds*reps*len(states))
	return nil
}

// validationLedger splits cold validation into the layers it calls:
// pccbin (parse), vcgen, lf (proof check) and the remainder, and times
// the machine layer's install-time passes.
func validationLedger(fx *fixture, ls ledgerSizes, tr *tracer, tl *tally, rep *report) error {
	ctx := context.Background()
	pol := fx.pol
	lim := pcc.DefaultLimits()
	// The first validation builds the consumer's signature once per
	// process; keep it out of the samples.
	if _, _, err := pcc.ValidateCtx(ctx, fx.pool.Ret, pol, nil); err != nil {
		return err
	}
	for _, f := range filters.All {
		var ds []time.Duration
		for i := 0; i < ls.Validations; i++ {
			op := tr.op()
			sp := tr.begin(op, -1, fmt.Sprintf("ledger.validate.filter%d", f), "pcc", "pcc.ValidateCtx")
			t0 := time.Now()
			_, _, err := pcc.ValidateCtx(ctx, fx.pool.paper(f).Binary, pol, nil)
			ds = append(ds, time.Since(t0))
			tr.end(sp)
			tl.check(err == nil, "validate %v: %v", f, err)
		}
		rep.add(fmt.Sprintf("pcc.validate_ms.filter%d", f), median(scaled(ds, time.Millisecond)), "ms", len(ds))
	}

	sig := lf.NewSignature()
	if extra := pol.ExtraAxioms(); extra != nil {
		sig = lf.NewSignatureWith(extra)
	}
	n := len(fx.pool.Entries)
	var validate, parse, gen, check, compile, wcet, rest, allocs []float64
	steps := 0
	var m0, m1 runtime.MemStats
	for _, e := range fx.pool.Entries {
		op := tr.op()
		runtime.ReadMemStats(&m0)
		sp := tr.begin(op, -1, "ledger.validate.pool", "pcc", "pcc.ValidateCtx")
		t0 := time.Now()
		_, _, err := pcc.ValidateCtx(ctx, e.Binary, pol, nil)
		dv := time.Since(t0)
		tr.end(sp)
		runtime.ReadMemStats(&m1)
		tl.check(err == nil, "validate pool entry: %v", err)
		validate = append(validate, float64(dv)/float64(time.Millisecond))
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs))

		op = tr.op()
		sp = tr.begin(op, -1, "ledger.stages", "pccbin", "pccbin.UnmarshalWithLimits")
		t0 = time.Now()
		bin, err := pccbin.UnmarshalWithLimits(e.Binary, pccbin.Limits{MaxTermNodes: lim.MaxTermNodes, MaxTermDepth: lim.MaxTermDepth})
		var prog []alpha.Instr
		var invs map[int]logic.Pred
		if err == nil {
			prog, err = alpha.Decode(bin.Code)
		}
		if err == nil {
			invs, err = bin.DecodeInvariants()
		}
		dp := time.Since(t0)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("ledger parse: %w", err)
		}

		sp = tr.begin(op, -1, "ledger.stages", "vcgen", "vcgen.Gen")
		t0 = time.Now()
		g, err := vcgen.Gen(prog, pol.Pre, pol.Post, invs)
		var spT lf.Term
		if err == nil {
			spT, err = lf.EncodePred(g.SP)
		}
		dg := time.Since(t0)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("ledger vcgen: %w", err)
		}

		sp = tr.begin(op, -1, "ledger.stages", "lf", "lf.Checker.Check")
		t0 = time.Now()
		ch := lf.NewChecker(sig)
		ch.MaxSteps = lim.MaxCheckSteps
		ch.MaxDepth = lim.MaxTermDepth
		err = ch.Check(bin.Proof, lf.App{F: lf.Konst{Name: lf.CPf}, X: spT})
		dc := time.Since(t0)
		tr.end(sp)
		tl.check(err == nil, "lf check: %v", err)
		steps += ch.Steps

		sp = tr.begin(op, -1, "ledger.stages", "machine", "machine.Compile")
		t0 = time.Now()
		_, err = machine.Compile(prog, &machine.DEC21064)
		dk := time.Since(t0)
		tr.end(sp)
		tl.check(err == nil, "compile: %v", err)

		sp = tr.begin(op, -1, "ledger.stages", "machine", "machine.MaxCost")
		t0 = time.Now()
		_, err = machine.DEC21064.MaxCost(prog)
		dw := time.Since(t0)
		tr.end(sp)
		tl.check(err == nil, "wcet: %v", err)

		us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
		parse = append(parse, us(dp))
		gen = append(gen, us(dg))
		check = append(check, float64(dc)/float64(time.Millisecond))
		compile = append(compile, us(dk))
		wcet = append(wcet, us(dw))
		rest = append(rest, us(dv-dp-dg-dc))
	}
	rep.add("pcc.validate_ms.pool", median(validate), "ms", n)
	rep.add("pccbin.parse_us", median(parse), "us", n)
	rep.add("vcgen.gen_us", median(gen), "us", n)
	rep.add("lf.check_ms", median(check), "ms", n)
	rep.add("pcc.sigcheck_us", median(rest), "us", n)
	rep.add("lf.check_steps", float64(steps)/float64(n), "count", n)
	rep.add("pcc.validate_allocs", median(allocs), "count", n)
	rep.add("machine.compile_us", median(compile), "us", n)
	rep.add("machine.wcet_us", median(wcet), "us", n)

	// The store's share of a restart: open and replay, no validation.
	var replay []float64
	for i := 0; i < ls.Validations; i++ {
		op := tr.op()
		root := tr.begin(op, -1, "ledger.replay", "bench", "bench.replay")
		t0 := time.Now()
		sp := tr.begin(op, root, "ledger.replay", "store", "store.Open")
		s, err := store.Open(fx.recoverDir, store.Options{})
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin(op, root, "ledger.replay", "store", "store.Replay")
		recs, _, err := s.Replay()
		tr.end(sp)
		d := time.Since(t0)
		tr.end(root)
		s.Close()
		tl.check(err == nil && len(recs) > 0, "replay: %v", err)
		replay = append(replay, float64(d)/float64(time.Millisecond))
	}
	rep.add("store.replay_ms", median(replay), "ms", len(replay))
	return nil
}

// installLedger times cache-hit installs with no store at several table
// sizes and churn histories, and the store's append and compaction.
func installLedger(fx *fixture, ls ledgerSizes, tr *tracer, tl *tally, rep *report) error {
	// Tables are filled from a hot set of 32 binaries, so every install
	// after the first 32 hits the proof cache.
	hot := min(32, len(fx.pool.Entries))
	bin := func(i int) []byte { return fx.pool.Entries[i%hot].Binary }
	probe := func(label string, prep func(k *kernel.Kernel) error) ([]time.Duration, []time.Duration, error) {
		reg := kernel.NewRegistry()
		tn, err := reg.Create("ledger-" + label)
		if err != nil {
			return nil, nil, err
		}
		defer reg.Remove(tn.Name)
		if err := servePosture(tn); err != nil {
			return nil, nil, err
		}
		k := tn.Kernel
		if err := prep(k); err != nil {
			return nil, nil, err
		}
		// Put the probe binary in the proof cache.
		if err := k.InstallFilter("warm", bin(0)); err != nil {
			return nil, nil, err
		}
		if err := k.UninstallFilter("warm"); err != nil {
			return nil, nil, err
		}
		phase := "ledger.install." + label
		var ins, un []time.Duration
		for i := 0; i < ls.HitProbes; i++ {
			owner := fmt.Sprintf("probe%06d", i)
			op := tr.op()
			sp := tr.begin(op, -1, phase, "kernel", "kernel.InstallFilter")
			t0 := time.Now()
			err := k.InstallFilter(owner, bin(0))
			ins = append(ins, time.Since(t0))
			tr.end(sp)
			tl.check(err == nil, "ledger install: %v", err)
			sp = tr.begin(op, -1, phase, "kernel", "kernel.UninstallFilter")
			t0 = time.Now()
			err = k.UninstallFilter(owner)
			un = append(un, time.Since(t0))
			tr.end(sp)
			tl.check(err == nil, "ledger uninstall: %v", err)
		}
		return ins, un, nil
	}
	fill := func(n int) func(k *kernel.Kernel) error {
		return func(k *kernel.Kernel) error {
			for i := 0; i < n; i++ {
				if err := k.InstallFilter(fmt.Sprintf("l%06d", i), bin(i)); err != nil {
					return err
				}
			}
			return nil
		}
	}
	churned := func(k *kernel.Kernel) error {
		for i := 0; i < ls.Large; i++ {
			o := fmt.Sprintf("h%06d", i)
			if err := k.InstallFilter(o, bin(i)); err != nil {
				return err
			}
			if err := k.UninstallFilter(o); err != nil {
				return err
			}
		}
		return nil
	}
	us := func(ds []time.Duration) float64 { return median(scaled(ds, time.Microsecond)) }
	for _, c := range []struct {
		label string
		prep  func(k *kernel.Kernel) error
	}{
		{"live0", fill(0)},
		{"live1k", fill(ls.Mid)},
		{"live4k", fill(ls.Large)},
		{"churned4k", churned},
	} {
		ins, un, err := probe(c.label, c.prep)
		if err != nil {
			return fmt.Errorf("install ledger %s: %w", c.label, err)
		}
		rep.add("kernel.install_hit_us."+c.label, us(ins), "us", len(ins))
		if c.label == "live1k" {
			rep.add("kernel.uninstall_us.live1k", us(un), "us", len(un))
		}
	}

	// Proof-cache use by the churn phase, against the probes it made.
	rep.add("kernel.cache_hit_ratio", float64(fx.cacheHits)/float64(fx.cacheProbes), "ratio", fx.cacheProbes)
	rep.add("kernel.cache_probes", float64(fx.cacheProbes), "count", fx.cacheProbes)

	// Compaction at Mid live filters, then fsynced appends.
	dir := filepath.Join(fx.dir, "ledger-store")
	recs := make([]store.Record, ls.Mid)
	for i := range recs {
		recs[i] = store.Record{Kind: store.KindInstall, Owner: fmt.Sprintf("s%06d", i), Binary: bin(i)}
	}
	if err := writeJournal(dir, recs); err != nil {
		return err
	}
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	defer s.Close()
	var compact, appends []time.Duration
	for i := 0; i < 3; i++ {
		op := tr.op()
		sp := tr.begin(op, -1, "ledger.store", "store", "store.Compact")
		t0 := time.Now()
		err := s.Compact()
		compact = append(compact, time.Since(t0))
		tr.end(sp)
		tl.check(err == nil, "compact: %v", err)
	}
	for i := 0; i < ls.Appends; i++ {
		op := tr.op()
		sp := tr.begin(op, -1, "ledger.store", "store", "store.Append")
		t0 := time.Now()
		_, err := s.Append(store.KindInstall, fmt.Sprintf("a%06d", i), bin(i))
		appends = append(appends, time.Since(t0))
		tr.end(sp)
		tl.check(err == nil, "append: %v", err)
	}
	rep.add("store.compact_ms", median(scaled(compact, time.Millisecond)), "ms", len(compact))
	ap := scaled(appends, time.Microsecond)
	rep.add("store.append_us.p50", quantile(ap, 0.5), "us", len(ap))
	rep.add("store.append_us.p99", quantile(ap, 0.99), "us", len(ap))
	return nil
}
