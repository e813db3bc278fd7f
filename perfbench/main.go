// Command perfbench is the kernel's end-to-end benchmark. One run builds
// its inputs from --seed, measures one workload against the kernel's
// public API for --seconds, checks every output against an independent
// oracle, and prints its metrics, the last line being one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Workloads (each also runs the other two at a fixed companion size, so
// every end-to-end metric is reported on every workload):
//
//	serve_dispatch  closed loop, one goroutine, back-to-back 64-packet
//	                DeliverPackets batches into a serving-posture tenant
//	                with the four paper filters
//	durable_churn   closed loop, one installer: install a fresh owner
//	                with a pool binary, uninstall the oldest, every call
//	                acked after its journal append, 1,000 live filters
//	cold_recover    repeated restarts: store.Open of a journal written at
//	                set-up, Kernel.Recover into a fresh tenant with an
//	                empty proof cache, one probe batch
//
// With --trace 0 the metrics are the end-to-end ones (untraced). With
// --trace 1 the run times every call into a layer as a span, adds the
// per-layer ledgers, and reports the per-layer metrics; the spans are
// written to <dir>/spans-<workload>.jsonl when the run ends.
//
// Run it through run.sh, which builds it from the checkout's sources.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	dir      string
	sz       sizes
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report prints each metric as it is added, with its sample count, and
// keeps it for the final JSON line.
type report struct {
	out     io.Writer
	metrics map[string]metric
}

func (r *report) add(name string, v float64, unit string, samples int) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	fmt.Fprintf(r.out, "  %-38s %16.6f %-7s n=%d\n", name, v, unit, samples)
}

func main() {
	os.Exit(cli(os.Args[1:], full, os.Stdout))
}

// cli runs the command line args with the given sizes and returns the
// exit code. With -child first it is one measuring process of an
// untraced run: it prints its share as JSON instead of a result.
func cli(args []string, sz sizes, out io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	cfg := config{sz: sz}
	child := fs.Bool("child", false, "internal: measure one process's share and print it as JSON")
	fs.StringVar(&cfg.workload, "workload", "", "serve_dispatch, durable_churn or cold_recover")
	fs.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "seconds the named workload is measured for")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	fs.StringVar(&cfg.dir, "dir", ".bench_build", "directory for stores and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *trace == 1
	var v any
	var err error
	if *child {
		v, err = measure(cfg)
	} else {
		v, err = run(cfg, out)
	}
	if err == nil {
		err = json.NewEncoder(out).Encode(v)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// fsType names the filesystem holding dir: fsync latency holds only for
// that kind of disk.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs",
		0x794C7630: "overlay", 0x2FC12FC1: "zfs", 0x6969: "nfs", 0x01021997: "9p",
		0x65735546: "fuse", 0xF2F52010: "f2fs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// run performs one benchmark run and returns its result line.
func run(cfg config, out io.Writer) (*result, error) {
	switch cfg.workload {
	case phaseDispatch, phaseChurn, phaseRecover:
	default:
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "# perfbench workload=%s seed=%d seconds=%g trace=%v nproc=%d GOMAXPROCS=%d go=%s fs=%s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), fsType(cfg.dir))

	tl := &tally{}
	rep := &report{out: out, metrics: map[string]metric{}}
	if cfg.trace {
		dir := filepath.Join(cfg.dir, fmt.Sprintf("run-%d", os.Getpid()))
		os.RemoveAll(dir)
		fx, err := buildFixture(cfg.seed, cfg.sz, dir)
		if err != nil {
			os.RemoveAll(dir)
			return nil, fmt.Errorf("set-up: %w", err)
		}
		defer fx.close()
		if err := traced(cfg, fx, tl, rep); err != nil {
			return nil, err
		}
	} else if err := untraced(cfg, tl, rep); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "  %-38s %16.6f %-7s n=%d\n", "failed_frac", float64(tl.failed)/float64(tl.attempted), "ratio", tl.attempted)
	for _, f := range tl.first {
		fmt.Fprintln(out, "  FAILED:", f)
	}
	return &result{Correct: tl.failed == 0, Attempted: tl.attempted, Failed: tl.failed, Metrics: rep.metrics}, nil
}

// roundsPerProc is how many interleaved rounds each measuring process
// cuts its share of the phases into. A shared host's speed drifts on a
// scale of seconds to minutes; the phases take turns so each sees all of
// it, and the latencies are the median of their per-round values, so a
// slow stretch that covers less than half of the rounds moves them
// little.
const roundsPerProc = 6

// churnRate is the nominal operation rate that sizes the churn phase
// when it is the named workload: about the loop's rate on a 2-vCPU ext4
// host (800-1,400 ops/s as the host's load varies), so the phase lasts
// about --seconds there. Churn runs a fixed number of operations rather
// than a fixed time: every fresh owner name grows the kernel's owner
// history, so a time-bounded run would hand a faster kernel a longer
// history and charge it for its own speed.
const churnRate = 1000

// churnRoundOps is the number of churn operations in one round: a whole
// number of ChurnRound blocks, so every round does the same work (one
// compaction per block). The named workload gets as many blocks as
// --seconds at churnRate fills, at least one.
func churnRoundOps(cfg config) int {
	n := cfg.sz.ChurnRound
	if cfg.workload == phaseChurn {
		parts := float64(cfg.sz.Procs * roundsPerProc * n)
		n *= max(1, int(math.Round(cfg.seconds*churnRate/parts)))
	}
	return n
}

// churnOps is the number of churn operations an untraced run makes.
func churnOps(cfg config) int { return churnRoundOps(cfg) * cfg.sz.Procs * roundsPerProc }

// share is one measuring process's part of an untraced run: its set-up
// time, the work done and loop wall time of each throughput summed over
// its rounds, each round's value of the per-round metrics, the samples
// pooled over its rounds, and its oracle tally.
type share struct {
	SetupS    float64               `json:"setup_s"`
	Pool      [32]byte              `json:"pool"`
	Work      map[string][2]float64 `json:"work"` // units done, loop seconds
	Rounds    map[string][]float64  `json:"rounds"`
	Pooled    map[string][]float64  `json:"pooled"`
	Counts    map[string]int        `json:"counts"`
	HeapMiB   float64               `json:"heap_mib"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Failures  []string              `json:"failures"`
	Log       []string              `json:"log"`
}

// measure sets up once and runs this process's share of the three
// phases, interleaved round by round in a fixed order, untraced.
func measure(cfg config) (*share, error) {
	sh := &share{Work: map[string][2]float64{}, Rounds: map[string][]float64{}, Pooled: map[string][]float64{}, Counts: map[string]int{}}
	dir := filepath.Join(cfg.dir, fmt.Sprintf("run-%d", os.Getpid()))
	os.RemoveAll(dir)
	t0 := time.Now()
	fx, err := buildFixture(cfg.seed, cfg.sz, dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("set-up: %w", err)
	}
	sh.SetupS = time.Since(t0).Seconds()
	defer fx.close()
	sh.Pool = fx.pool.sum()

	parts := cfg.sz.Procs * roundsPerProc
	home := func(phase string, companion int) budget {
		if phase == cfg.workload {
			return forSeconds(cfg.seconds / float64(parts))
		}
		return budget{n: companion}
	}
	work := func(name string, units int, l loop) {
		w := sh.Work[name]
		sh.Work[name] = [2]float64{w[0] + float64(units), w[1] + l.elapsed.Seconds()}
	}
	add := func(name string, v float64, n int) {
		sh.Rounds[name] = append(sh.Rounds[name], v)
		sh.Counts[name] += n
	}
	tl := &tally{}
	gen := 0
	for i := 0; i < roundsPerProc; i++ {
		runtime.GC()
		d := runDispatch(fx, home(phaseDispatch, cfg.sz.CompanionBatches), nil, phaseDispatch, tl)
		lat := scaled(d.lat, time.Microsecond)
		work("dispatch_pkts_per_s", d.n*batchSize, d.loop)
		add("dispatch_batch_p50_us", quantile(lat, 0.5), len(lat))
		add("dispatch_batch_p90_us", quantile(lat, 0.9), len(lat))
		add("batch_p99", quantile(lat, 0.99), len(lat))

		runtime.GC()
		c := runChurn(fx, cfg.seed, churnRoundOps(cfg), nil, phaseChurn, tl)
		repeat := scaled(c.repeat, time.Microsecond)
		work("churn_ops_per_s", c.n, c.loop)
		add("install_repeat_p50_us", quantile(repeat, 0.5), len(repeat))
		add("repeat_p90", quantile(repeat, 0.9), len(repeat))
		add("uninstall_p50_us", median(scaled(c.uninstall, time.Microsecond)), len(c.uninstall))
		sh.Pooled["install_first"] = append(sh.Pooled["install_first"], scaled(c.first, time.Millisecond)...)

		runtime.GC()
		r := runRecover(fx, home(phaseRecover, cfg.sz.CompanionRestarts), nil, phaseRecover, tl, &gen)
		restarts := scaled(r.restarts, time.Second)
		sh.Pooled["recover_s"] = append(sh.Pooled["recover_s"], restarts...)
		sh.Log = append(sh.Log, fmt.Sprintf("round %d: %.0f pkts/s, batch p50 %.1fus, %.0f churn ops/s (%d first installs), repeat install p50 %.0fus, restart %.3fs",
			i, d.perSecond(batchSize), quantile(lat, 0.5), c.perSecond(1), len(c.first), quantile(repeat, 0.5), median(restarts)))
	}
	// Two collections: the first only moves pooled objects to the victim
	// cache, the second frees them.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	sh.HeapMiB = float64(ms.HeapAlloc) / (1 << 20)
	runtime.KeepAlive(fx)
	sh.Attempted, sh.Failed, sh.Failures = tl.attempted, tl.failed, tl.first
	return sh, nil
}

// spawn runs measure in a child process of this binary. Each process
// lays out its heap and fixture afresh, and memory-heavy work (proof
// checking, copy-on-write commits) runs measurably faster or slower from
// one process to the next; spreading a run over several processes
// averages that out.
func spawn(cfg config) (*share, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-child", "-workload", cfg.workload, "-seed", strconv.FormatUint(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-dir", cfg.dir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("measuring process: %w", err)
	}
	sh := &share{}
	if err := json.Unmarshal(out, sh); err != nil {
		return nil, fmt.Errorf("measuring process output: %w", err)
	}
	return sh, nil
}

// untraced measures the run in Procs processes, one after another, and
// reports the end-to-end metrics over all their rounds.
func untraced(cfg config, tl *tally, rep *report) error {
	var shares []*share
	for p := 0; p < cfg.sz.Procs; p++ {
		sh, err := spawn(cfg)
		if err != nil {
			return err
		}
		for _, l := range sh.Log {
			fmt.Fprintf(rep.out, "# proc %d %s\n", p, l)
		}
		tl.attempted += sh.Attempted
		tl.failed += sh.Failed
		tl.first = append(tl.first, sh.Failures...)
		if len(shares) > 0 {
			tl.check(sh.Pool == shares[0].Pool, "process %d built a different pool from the same seed", p)
		}
		shares = append(shares, sh)
	}
	all := func(get func(*share) []float64) []float64 {
		var out []float64
		for _, sh := range shares {
			out = append(out, get(sh)...)
		}
		return out
	}
	count := func(name string) int {
		n := 0
		for _, sh := range shares {
			n += sh.Counts[name]
		}
		return n
	}
	fmt.Fprintln(rep.out, "end-to-end metrics (throughputs over every round; latencies the median of each round's value, first installs and restarts pooled; n samples in all):")
	// Throughput is the work completed over the wall time of the loops
	// that did it, every slow operation included: compactions and first
	// installs are part of what a caller gets.
	for _, m := range []struct{ name, unit string }{{"dispatch_pkts_per_s", "pkts/s"}, {"churn_ops_per_s", "ops/s"}} {
		var units, secs float64
		for _, sh := range shares {
			units += sh.Work[m.name][0]
			secs += sh.Work[m.name][1]
		}
		rep.add(m.name, units/secs, m.unit, int(units))
	}
	for _, m := range []struct{ name, unit string }{
		{"dispatch_batch_p50_us", "us"},
		{"dispatch_batch_p90_us", "us"},
		{"install_repeat_p50_us", "us"},
		{"uninstall_p50_us", "us"},
	} {
		rep.add(m.name, median(all(func(sh *share) []float64 { return sh.Rounds[m.name] })), m.unit, count(m.name))
	}
	// Binaries new to the kernel and restarts are few per round: pool them.
	// Every pool binary not preloaded is a first install once per process,
	// so the first installs are the same balanced mix of the four filter
	// kinds in every run; their median falls in the gap between two
	// kinds' validation costs and jumps with either, so the mean is
	// reported.
	first := all(func(sh *share) []float64 { return sh.Pooled["install_first"] })
	rep.add("install_first_mean_ms", mean(first), "ms", len(first))
	restarts := all(func(sh *share) []float64 { return sh.Pooled["recover_s"] })
	rep.add("recover_s", median(restarts), "s", len(restarts))
	rep.add("setup_s", median(all(func(sh *share) []float64 { return []float64{sh.SetupS} })), "s", len(shares))
	rep.add("live_heap_mb", median(all(func(sh *share) []float64 { return []float64{sh.HeapMiB} })), "MiB", len(shares))
	// These tails follow the host's scheduling and collection pacing more
	// than the kernel, too much to gate on; they are shown, not reported
	// as metrics (see kernel.install_repeat_p90_us in the traced run).
	fmt.Fprintf(rep.out, "# not gated: batch p99 %.1fus, repeat install p90 %.0fus, first install p50 %.3fms\n",
		median(all(func(sh *share) []float64 { return sh.Rounds["batch_p99"] })),
		median(all(func(sh *share) []float64 { return sh.Rounds["repeat_p90"] })), median(first))
	return nil
}

// homeSlice runs one slice of the named workload and returns its loop
// and its primary latency samples: batch latency, repeat-install latency
// or restart time.
func homeSlice(cfg config, fx *fixture, seconds float64, tr *tracer, tl *tally, gen *int) (loop, []time.Duration) {
	b := forSeconds(seconds)
	switch cfg.workload {
	case phaseDispatch:
		r := runDispatch(fx, b, tr, phaseDispatch, tl)
		return r.loop, r.lat
	case phaseChurn:
		r := runChurn(fx, cfg.seed, churnOps(cfg)/traceSlices, tr, phaseChurn, tl)
		return r.loop, r.repeat
	}
	r := runRecover(fx, b, tr, phaseRecover, tl, gen)
	return r.loop, r.restarts
}

// traceSlices cuts the named workload into untraced and traced slices in
// the order off, on, on, off, repeated, so a steady drift over the run
// (the churn table's owner history grows with every operation) falls on
// both sides equally.
const traceSlices = 8

func tracedSlice(s int) bool { return s%4 == 1 || s%4 == 2 }

// selfTimes names the per-operation self time reported for each phase
// and each layer the benchmark calls into from that phase.
var selfTimes = []struct{ phase, layer string }{
	{phaseDispatch, "kernel"},
	{phaseChurn, "kernel"},
	{phaseRecover, "kernel"},
	{phaseRecover, "store"},
}

// traced is the --trace 1 run: the named workload in alternating
// untraced and traced slices (their difference in wall time per
// operation, span bookkeeping included, is the tracing overhead), the
// companion phases traced, then the per-layer ledgers.
func traced(cfg config, fx *fixture, tl *tally, rep *report) error {
	sz := cfg.sz
	tr := newTracer()
	gen := 0
	var off, on []float64 // wall time per operation of each slice
	var repeat []time.Duration
	// Slice -1 is an untraced warm-up left out of the comparison: on churn
	// it meets nearly every binary that is new to the kernel.
	for s := -1; s < traceSlices; s++ {
		runtime.GC()
		var t *tracer
		if s >= 0 && tracedSlice(s) {
			t = tr
		}
		l, lat := homeSlice(cfg, fx, cfg.seconds/traceSlices, t, tl, &gen)
		switch {
		case s < 0:
		case t == nil:
			off = append(off, float64(l.perOp()))
		default:
			on = append(on, float64(l.perOp()))
		}
		if cfg.workload == phaseChurn {
			repeat = append(repeat, lat...)
		}
	}
	if cfg.workload != phaseDispatch {
		runDispatch(fx, budget{n: traceSlices * sz.CompanionBatches}, tr, phaseDispatch, tl)
	}
	if cfg.workload != phaseChurn {
		repeat = runChurn(fx, cfg.seed, 2*sz.ChurnRound, tr, phaseChurn, tl).repeat
	}
	if cfg.workload != phaseRecover {
		runRecover(fx, budget{n: traceSlices * sz.CompanionRestarts}, tr, phaseRecover, tl, &gen)
	}

	fmt.Fprintln(rep.out, "per-layer metrics (traced):")
	runtime.GC()
	if err := dispatchLedger(fx, sz.Ledger, tr, tl, rep); err != nil {
		return err
	}
	runtime.GC()
	if err := validationLedger(fx, sz.Ledger, tr, tl, rep); err != nil {
		return err
	}
	runtime.GC()
	if err := installLedger(fx, sz.Ledger, tr, tl, rep); err != nil {
		return err
	}
	rep.add("kernel.install_repeat_p90_us", quantile(scaled(repeat, time.Microsecond), 0.9), "us", len(repeat))

	// Self time per operation of each layer in the workloads' traced
	// operations.
	for _, st := range selfTimes {
		ops := tr.roots(st.phase)
		self := tr.selfTime(st.phase)[st.layer]
		rep.add("trace.self_us_per_op."+st.phase+"."+st.layer, float64(self)/float64(time.Microsecond)/float64(ops), "us/op", ops)
	}
	rep.add("trace.overhead_pct", (median(on)/median(off)-1)*100, "%", len(on)+len(off))
	path := filepath.Join(cfg.dir, "spans-"+cfg.workload+".jsonl")
	if err := tr.writeJSONL(path); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(rep.out, "spans written to %s (%d spans)\n", path, len(tr.spans))
	return nil
}
