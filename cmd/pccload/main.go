// Command pccload is the code consumer of Figure 1: it validates a PCC
// binary against a published policy and, on success, installs and runs
// the extension on the simulated kernel.
//
// Usage:
//
//	pccload [-policy packet-filter/v1] [-run] [-packets N] [-deadline D] filter.pcc...
//	pccload -chaos N [-chaos-seed S]
//	pccload -chaos-store N [-chaos-seed S]
//	pccload -diff-backends N
//	pccload -scale G [-packets N]
//	pccload -install-url http://host:port [-owner NAME] filter.pcc...
//	pccload -tamper-store DIR [-tamper-index N] [-tamper-at N]
//
// With -run and the packet-filter policy, the extension is executed
// over a synthetic trace and the accept rate reported; with the
// resource-access policy, it is invoked on a sample kernel table
// entry. With -deadline, validation runs under a context deadline and
// an expired deadline is a typed rejection, not a hang.
//
// With -chaos, pccload runs the internal/chaos fault-injection harness
// instead of loading binaries: it certifies the paper corpus, derives
// N adversarial mutants (bit-flips, truncations, section swaps, proof
// grafts, resource bombs), validates each one, and exits nonzero if
// any mutant escapes a panic past the validator or validates without
// being provably safe.
//
// With -diff-backends, pccload certifies the paper filter corpus,
// installs it into two kernels — one per dispatch backend — and
// delivers an N-packet trace through both (per-packet on the
// interpreter, vectorized on the compiled backend), cross-checking
// every verdict against the pure-Go reference semantics. Any
// divergence exits nonzero: the operator-facing version of the
// backend-differential test suite.
//
// With -chaos-store, pccload runs the durable-store chaos harness
// instead: it seeds journals from certified installs, damages each one
// (torn tails, truncations, CRC flips, proof bit rot, duplicated and
// reordered frames), runs verified recovery over the wreckage, and
// exits nonzero if recovery ever admits an unsound binary or loses an
// intact acked install. A kill-during-commit sweep rides along,
// cutting one journal at every frame boundary.
//
// With -install-url, pccload is the remote producer: each binary is
// POSTed to a serving pccmon's /install endpoint (the owner defaults
// to the file's base name). A 200 means the monitor journaled the
// install durably before answering.
//
// With -tamper-store, pccload flips one proof byte inside a durable
// store's journal (re-forging the frame CRC so only verified recovery
// can catch it) — the operator-facing way to demonstrate that a
// restored journal is re-proved, not trusted.
//
// With -scale, pccload certifies the paper corpus into one kernel on
// the compiled backend and delivers the trace through it with G
// concurrent goroutines sharing the lock-free filter table, verifying
// the total accept census against the reference semantics and
// reporting aggregate throughput — the operator-facing version of the
// dispatch-scaling benchmark.
//
// Given several binaries (packet-filter policy only), pccload boots
// the simulated kernel and installs them all through its concurrent
// validation pipeline, then installs them a second time to show the
// proof cache: the warm pass skips VC generation and LF checking
// entirely. The cold pass prints a per-file stage table (parse, LF
// signature, VC generation, LF checking, WCET) from the kernel's
// telemetry trace.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	pcc "repro"
	"repro/internal/alpha"
	"repro/internal/chaos"
	"repro/internal/filters"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/pktgen"
	"repro/internal/policy"
	"repro/internal/store"
	"repro/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pccload: ")
	polName := flag.String("policy", "packet-filter/v1", "safety policy name")
	polFile := flag.String("policy-file", "", "load the safety policy from a file (overrides -policy)")
	run := flag.Bool("run", false, "execute the validated extension")
	packets := flag.Int("packets", 10000, "trace length for -run")
	pcapFile := flag.String("pcap", "", "replay packets from a pcap capture instead of the generator")
	trace := flag.Bool("trace", false, "print an instruction trace of the first packet's execution")
	deadline := flag.Duration("deadline", 0, "validation deadline (0 = none)")
	chaosTrials := flag.Int("chaos", 0, "run the fault-injection harness for N trials and exit (takes no binary arguments)")
	chaosSeed := flag.Int64("chaos-seed", 1, "RNG seed for -chaos / -chaos-store; identical seeds replay identically")
	chaosStore := flag.Int("chaos-store", 0, "run the durable-store chaos harness over N mutated journals plus a kill-during-commit sweep, and exit")
	installURL := flag.String("install-url", "", "POST each binary to a serving pccmon at this base URL instead of validating locally")
	owner := flag.String("owner", "", "with -install-url, the owner name (default: each file's base name)")
	tamperStore := flag.String("tamper-store", "", "flip one proof byte in this durable store's journal (CRC re-forged) and exit")
	tamperIndex := flag.Int("tamper-index", 0, "with -tamper-store, which install record to damage (0 = first)")
	tamperAt := flag.Int("tamper-at", 10, "with -tamper-store, byte offset from the end of the binary to flip")
	backend := flag.String("backend", "", "dispatch backend for batch installs: interp or compiled (default kernel default)")
	diffBackends := flag.Int("diff-backends", 0, "cross-check both dispatch backends over an N-packet trace and exit (takes no binary arguments)")
	scale := flag.Int("scale", 0, "deliver the trace through one shared compiled kernel with G concurrent goroutines and exit (takes no binary arguments)")
	flag.Parse()
	if *chaosTrials > 0 {
		if flag.NArg() != 0 {
			log.Fatal("-chaos certifies its own corpus and takes no binary arguments")
		}
		runChaos(*chaosTrials, *chaosSeed)
		return
	}
	if *chaosStore > 0 {
		if flag.NArg() != 0 {
			log.Fatal("-chaos-store certifies its own corpus and takes no binary arguments")
		}
		runChaosStore(*chaosStore, *chaosSeed)
		return
	}
	if *tamperStore != "" {
		victim, err := store.TamperBinaryByte(*tamperStore, *tamperIndex, *tamperAt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("tampered: flipped one proof byte of %q in %s (frame CRC re-forged — only verified recovery can catch this)\n",
			victim, *tamperStore)
		return
	}
	if *installURL != "" {
		if flag.NArg() < 1 {
			log.Fatal("-install-url expects at least one PCC binary")
		}
		remoteInstall(*installURL, *owner, flag.Args())
		return
	}
	if *diffBackends > 0 {
		if flag.NArg() != 0 {
			log.Fatal("-diff-backends certifies its own corpus and takes no binary arguments")
		}
		runDiffBackends(*diffBackends)
		return
	}
	if *scale > 0 {
		if flag.NArg() != 0 {
			log.Fatal("-scale certifies its own corpus and takes no binary arguments")
		}
		runScale(*scale, *packets)
		return
	}
	if flag.NArg() < 1 {
		log.Fatal("expected at least one PCC binary")
	}
	ctx := context.Background()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}
	if flag.NArg() > 1 {
		if *polFile != "" || *polName != "packet-filter/v1" {
			log.Fatal("batch mode installs against the kernel's packet-filter policy only")
		}
		batchInstall(ctx, flag.Args(), *backend)
		return
	}

	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	var pol *policy.Policy
	if *polFile != "" {
		text, err := os.ReadFile(*polFile)
		if err != nil {
			log.Fatal(err)
		}
		if pol, err = policy.Parse(string(text)); err != nil {
			log.Fatal(err)
		}
	} else if pol, err = policy.ByName(*polName); err != nil {
		log.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ext, stats, err := pcc.ValidateCtx(ctx, data, pol, nil)
	if err != nil {
		log.Fatalf("REJECTED: %v", err)
	}
	runtime.ReadMemStats(&after)
	fmt.Printf("VALIDATED %s against %s\n", flag.Arg(0), pol.Name)
	fmt.Printf("  binary:       %d bytes\n", stats.BinarySize)
	fmt.Printf("  validation:   %s (%d LF steps, %.1f KB allocated)\n",
		stats.Time, stats.CheckSteps, float64(after.TotalAlloc-before.TotalAlloc)/1024)
	fmt.Printf("  instructions: %d\n", len(ext.Prog))

	if !*run {
		return
	}
	switch pol.Name {
	case "packet-filter/v1", "sfi-segment/v1":
		env := filters.Env{SFI: pol.Name == "sfi-segment/v1"}
		var pkts []pktgen.Packet
		if *pcapFile != "" {
			f, err := os.Open(*pcapFile)
			if err != nil {
				log.Fatal(err)
			}
			pkts, err = pktgen.ReadPcap(f)
			f.Close()
			if err != nil {
				log.Fatal(err)
			}
			if len(pkts) > *packets {
				pkts = pkts[:*packets]
			}
		} else {
			pkts = pktgen.Generate(*packets, pktgen.Config{Seed: 1996})
		}
		if *trace && len(pkts) > 0 {
			fmt.Println("  instruction trace (first packet):")
			s := env.NewState(pkts[0].Data)
			_, err := machine.InterpTraced(ext.Prog, s, machine.Unchecked, &machine.DEC21064, 1<<20,
				func(pc int, ins alpha.Instr, st *machine.State) {
					fmt.Printf("    %3d: %-24s r0=%#x r4=%#x r5=%#x r6=%#x\n",
						pc, ins.String(), st.R[0], st.R[4], st.R[5], st.R[6])
				})
			if err != nil {
				log.Fatalf("trace run fault: %v", err)
			}
		}
		accepted := 0
		var cycles int64
		for _, p := range pkts {
			ret, c, err := env.Exec(ext.Prog, p.Data, machine.Unchecked)
			if err != nil {
				log.Fatalf("execution fault: %v", err)
			}
			cycles += c
			if ret != 0 {
				accepted++
			}
		}
		fmt.Printf("  ran %d packets: %d accepted, %.2f µs/packet on the modeled Alpha\n",
			len(pkts), accepted, machine.Micros(cycles)/float64(len(pkts)))
	case "resource-access/v1":
		mem := machine.NewMemory()
		entry := machine.NewRegion("table", 0x1000, 16, true)
		entry.SetWord(0, 1)  // tag: writable
		entry.SetWord(8, 41) // data
		mem.MustAddRegion(entry)
		s := &machine.State{Mem: mem}
		s.R[0] = 0x1000
		if _, err := ext.Run(s, 1000); err != nil {
			log.Fatalf("execution fault: %v", err)
		}
		fmt.Printf("  ran on a {tag:1, data:41} entry: data is now %d\n",
			entry.Word(8))
	default:
		fmt.Println("  (no runner for this policy)")
	}
}

// runChaos is the -chaos entry point: certify the paper corpus, derive
// trials adversarial mutants, validate every one, and report. The step
// budget is lowered from the default so hand-crafted proof bombs die
// in milliseconds instead of minutes — every legitimate base checks in
// well under 11k steps, so the margin is still generous.
func runChaos(trials int, seed int64) {
	bases, err := chaos.PaperBases()
	if err != nil {
		log.Fatal(err)
	}
	lim := pcc.DefaultLimits()
	lim.MaxCheckSteps = 50_000
	start := time.Now()
	rep := chaos.Run(bases, chaos.ValidateTarget(&lim), chaos.Config{Seed: seed, Trials: trials})
	fmt.Print(rep)
	fmt.Printf("  elapsed %v\n", time.Since(start))
	if !rep.Ok() {
		log.Fatalf("chaos: %d invariant violation(s)", len(rep.Violations))
	}
	fmt.Println("chaos: invariants held (no escaped panics, no unsound accepts)")
}

// runChaosStore is the -chaos-store entry point: n mutated-journal
// trials through the durable-store chaos harness, then a
// kill-during-commit sweep over one journal. Exits nonzero on any
// invariant violation: an unsound binary admitted by recovery, or an
// intact acked install lost.
func runChaosStore(n int, seed int64) {
	bases, err := chaos.PaperBases()
	if err != nil {
		log.Fatal(err)
	}
	scratch, err := os.MkdirTemp("", "pcc-chaos-store-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(scratch)

	start := time.Now()
	rep := chaos.StoreRun(bases, scratch, chaos.StoreConfig{Seed: seed, Trials: n})
	fmt.Print(rep)

	cuts := n / 8
	if cuts < 8 {
		cuts = 8
	}
	sweep := chaos.StoreKillSweep(bases, scratch, 8, cuts, seed)
	fmt.Printf("kill sweep: %d cut points (every frame boundary plus mid-frame), %d restores\n",
		sweep.Trials, sweep.Restored)
	for _, v := range sweep.Violations {
		fmt.Printf("  VIOLATION trial %d (%s): %s\n", v.Trial, v.Mutator, v.Detail)
	}
	fmt.Printf("  elapsed %v\n", time.Since(start))
	if !rep.Ok() || !sweep.Ok() {
		log.Fatalf("chaos-store: %d invariant violation(s)",
			len(rep.Violations)+len(sweep.Violations))
	}
	fmt.Printf("chaos-store: invariants held over %d damaged journals (no unsound accepts, no lost acked installs)\n",
		rep.Trials+sweep.Trials)
}

// remoteInstall is the -install-url entry point: POST each binary to a
// serving pccmon's /install endpoint. The serving side runs the whole
// validation pipeline and, when a store is attached, journals the
// install before answering — a 200 here is a durable ack.
func remoteInstall(base, owner string, files []string) {
	base = strings.TrimSuffix(base, "/")
	failed := 0
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			log.Fatal(err)
		}
		name := owner
		if name == "" || len(files) > 1 {
			name = strings.TrimSuffix(filepath.Base(file), ".pcc")
		}
		u := base + "/install?owner=" + url.QueryEscape(name)
		resp, err := http.Post(u, "application/octet-stream", bytes.NewReader(data))
		if err != nil {
			log.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			log.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			failed++
			fmt.Printf("REJECTED %s as %q: %d %s\n", file, name, resp.StatusCode,
				strings.TrimSpace(string(body)))
			continue
		}
		fmt.Printf("INSTALLED %s as %q: %s\n", file, name, strings.TrimSpace(string(body)))
	}
	if failed > 0 {
		log.Fatalf("install-url: %d of %d binaries rejected", failed, len(files))
	}
}

// runDiffBackends is the -diff-backends entry point: the paper corpus
// installed into one kernel per backend, an n-packet trace delivered
// through both (per-packet interpreted, vectorized compiled), every
// verdict cross-checked against the reference semantics. Exits nonzero
// on the first divergence.
func runDiffBackends(n int) {
	kinterp := kernel.New()
	kcomp := kernel.New()
	if err := kcomp.SetBackend(kernel.BackendCompiled); err != nil {
		log.Fatal(err)
	}
	owners := make(map[filters.Filter]string, len(filters.All))
	for _, f := range filters.All {
		owner := fmt.Sprintf("proc-%d", f)
		owners[f] = owner
		cert, err := pcc.Certify(filters.Source(f), kinterp.FilterPolicy(), nil)
		if err != nil {
			log.Fatalf("%v: %v", f, err)
		}
		for _, k := range []*kernel.Kernel{kinterp, kcomp} {
			if err := k.InstallFilter(owner, cert.Binary); err != nil {
				log.Fatalf("%v: %v", f, err)
			}
		}
	}

	pkts := pktgen.Generate(n, pktgen.Config{Seed: 1996})
	raw := make([][]byte, len(pkts))
	for i, p := range pkts {
		raw[i] = p.Data
	}
	divergences := 0
	report := func(pi int, kind string, got, want []string) {
		divergences++
		if divergences <= 10 {
			fmt.Printf("DIVERGENCE packet %d (%s): got %v, reference says %v\n",
				pi, kind, got, want)
		}
	}
	start := time.Now()
	for lo := 0; lo < len(raw); lo += 1024 {
		hi := lo + 1024
		if hi > len(raw) {
			hi = len(raw)
		}
		batch, err := kcomp.DeliverPackets(raw[lo:hi])
		if err != nil {
			log.Fatalf("compiled dispatch fault: %v", err)
		}
		for i, data := range raw[lo:hi] {
			single, err := kinterp.DeliverPacket(pktgen.Packet{Data: data})
			if err != nil {
				log.Fatalf("interpreted dispatch fault: %v", err)
			}
			var want []string
			for _, f := range filters.All {
				if filters.Reference(f, data) {
					want = append(want, owners[f])
				}
			}
			if !equalStrings(single, want) {
				report(lo+i, "interp/single", single, want)
			}
			if !equalStrings(batch[i], want) {
				report(lo+i, "compiled/batch", batch[i], want)
			}
		}
	}
	if divergences > 0 {
		log.Fatalf("diff-backends: %d divergence(s) over %d packets", divergences, len(pkts))
	}
	fmt.Printf("diff-backends: %d packets × %d filters, both backends match the reference semantics (%v)\n",
		len(pkts), len(filters.All), time.Since(start).Round(time.Millisecond))
}

// runScale is the -scale entry point: the paper corpus in one kernel
// on the compiled backend, the trace delivered by g goroutines pulling
// 1024-packet batches off a shared queue — all of them reading the
// same lock-free filter-table snapshot. The total accept census must
// match the reference semantics exactly; a torn snapshot or a lost
// shard increment shows up as a census mismatch and a nonzero exit.
func runScale(g, n int) {
	k := kernel.New()
	if err := k.SetBackend(kernel.BackendCompiled); err != nil {
		log.Fatal(err)
	}
	for _, f := range filters.All {
		cert, err := pcc.Certify(filters.Source(f), k.FilterPolicy(), nil)
		if err != nil {
			log.Fatalf("%v: %v", f, err)
		}
		if err := k.InstallFilter(fmt.Sprintf("proc-%d", f), cert.Binary); err != nil {
			log.Fatalf("%v: %v", f, err)
		}
	}

	pkts := pktgen.Generate(n, pktgen.Config{Seed: 1996})
	raw := make([][]byte, len(pkts))
	wantAccepts := 0
	for i, p := range pkts {
		raw[i] = p.Data
		for _, f := range filters.All {
			if filters.Reference(f, p.Data) {
				wantAccepts++
			}
		}
	}
	var batches [][][]byte
	for lo := 0; lo < len(raw); lo += 1024 {
		hi := lo + 1024
		if hi > len(raw) {
			hi = len(raw)
		}
		batches = append(batches, raw[lo:hi])
	}

	var next, accepted atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var acc int64
			for {
				i := next.Add(1) - 1
				if int(i) >= len(batches) {
					break
				}
				out, err := k.DeliverPackets(batches[i])
				if err != nil {
					log.Fatalf("dispatch fault: %v", err)
				}
				for _, row := range out {
					acc += int64(len(row))
				}
			}
			accepted.Add(acc)
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	if int(accepted.Load()) != wantAccepts {
		log.Fatalf("scale: %d accepts over %d packets, reference says %d — snapshot or counter bug",
			accepted.Load(), len(pkts), wantAccepts)
	}
	st := k.Stats()
	if st.Packets != len(pkts) {
		log.Fatalf("scale: kernel counted %d packets, delivered %d — lost shard increments", st.Packets, len(pkts))
	}
	fmt.Printf("scale: %d packets × %d filters via %d goroutines (GOMAXPROCS=%d): "+
		"%.0f packets/sec aggregate, accept census matches the reference (%d)\n",
		len(pkts), len(filters.All), g, runtime.GOMAXPROCS(0),
		float64(len(pkts))/wall.Seconds(), wantAccepts)
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// batchInstall pushes every binary through the kernel's concurrent
// validation pipeline twice: a cold pass that proof-checks each one,
// and a warm pass served from the content-addressed proof cache. A
// telemetry recorder rides along, so the cold pass also yields a
// per-file stage table showing where each binary's one-time cost went.
func batchInstall(ctx context.Context, files []string, backend string) {
	k := kernel.New()
	if backend != "" {
		b, err := kernel.ParseBackend(backend)
		if err != nil {
			log.Fatal(err)
		}
		if err := k.SetBackend(b); err != nil {
			log.Fatal(err)
		}
	}
	rec := telemetry.New()
	k.SetRecorder(rec)
	var reqs []kernel.InstallRequest
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			log.Fatal(err)
		}
		reqs = append(reqs, kernel.InstallRequest{Owner: file, Binary: data})
	}
	start := time.Now()
	rejected := 0
	for i, err := range k.InstallFilterBatchCtx(ctx, reqs) {
		if err != nil {
			rejected++
			fmt.Printf("REJECTED %s: %v\n", reqs[i].Owner, err)
		} else {
			fmt.Printf("VALIDATED %s\n", reqs[i].Owner)
		}
	}
	cold := time.Since(start)
	printStageTable(rec, reqs)

	start = time.Now()
	for _, err := range k.InstallFilterBatch(reqs) {
		_ = err // same verdicts; rejected binaries re-validate and re-fail
	}
	warm := time.Since(start)

	st := k.Stats()
	fmt.Printf("installed %d/%d binaries on %d validator(s)\n",
		len(reqs)-rejected, len(reqs), runtime.GOMAXPROCS(0))
	fmt.Printf("  cold batch: %v (%.2f ms proof checking, queue wait %.0f µs)\n",
		cold, st.ValidationMicros/1000, st.QueueWaitMicros)
	fmt.Printf("  warm batch: %v — proof cache: %d hits / %d misses\n",
		warm, st.CacheHits, st.CacheMisses)
}

// printStageTable renders the cold pass's per-file validation-stage
// breakdown from the telemetry trace (µs per stage, one row per file),
// with each install's correlation EventID — the key that joins the row
// to its audit record and any flight events in offline dumps.
func printStageTable(rec *telemetry.Recorder, reqs []kernel.InstallRequest) {
	stages := []string{
		telemetry.StageParse, telemetry.StageLFSig, telemetry.StageVCGen,
		telemetry.StageLFCheck, telemetry.StageWCET,
	}
	byFile := map[string]map[string]float64{} // file -> stage -> µs
	eidByFile := map[string]uint64{}          // file -> correlation EventID
	for _, e := range rec.Trace().Events() {
		if e.Stage == telemetry.StageValidate {
			eidByFile[e.Detail] = e.Event
		}
		for _, s := range stages {
			if e.Stage == s {
				if byFile[e.Detail] == nil {
					byFile[e.Detail] = map[string]float64{}
				}
				byFile[e.Detail][s] += float64(e.DurNanos) / 1e3
			}
		}
	}
	fmt.Printf("\nvalidation cost by stage (µs):\n")
	fmt.Printf("%-24s %8s %8s %8s %8s %8s %9s  %s\n",
		"file", "parse", "lfsig", "vcgen", "lfcheck", "wcet", "total", "event")
	for _, r := range reqs {
		st, ok := byFile[r.Owner]
		if !ok {
			continue // rejected before the stage breakdown
		}
		var total float64
		for _, s := range stages {
			total += st[s]
		}
		fmt.Printf("%-24s %8.0f %8.0f %8.0f %8.0f %8.0f %9.0f  %d\n", r.Owner,
			st[telemetry.StageParse], st[telemetry.StageLFSig], st[telemetry.StageVCGen],
			st[telemetry.StageLFCheck], st[telemetry.StageWCET], total, eidByFile[r.Owner])
	}
	fmt.Println()
}
