// Command benchcheck is the dispatch-performance regression gate: it
// reads one or more BENCH_<timestamp>.json reports (paperbench -json)
// and fails if the compiled backend has regressed below the
// interpreter — the whole point of install-time compilation — or if
// the headline batch-compiled speedup has fallen under a floor.
//
// Usage:
//
//	benchcheck [-min-speedup X] [-max-profiling-overhead P]
//	           [-min-parallel-speedup S] [-max-window-overhead W]
//	           [-min-warm-recovery-speedup R] [-max-observer-overhead O]
//	           [BENCH_file.json ...]
//
// With no file arguments, the newest BENCH_*.json in the current
// directory is checked. The checks are deliberately about ordering
// and ratios, not absolute nanoseconds, so the gate is portable
// across hosts of different speeds:
//
//   - the report carries a dispatch section (schema ≥ 2);
//   - for every dispatch shape measured under both backends, the
//     compiled backend's packets/sec is at least the interpreter's;
//   - the recorded dispatch_speedup (batch-compiled over
//     single-interpreted) meets -min-speedup;
//   - for schema ≥ 3 reports, the recorded profiling_overhead_pct
//     (compiled throughput lost to always-on per-block profiling)
//     stays under -max-profiling-overhead;
//   - for schema ≥ 4 reports, the recorded parallel_speedup (the
//     widest rung of the lock-free multi-goroutine dispatch ladder
//     over one goroutine) meets the core-aware floor derived from
//     -min-parallel-speedup;
//   - for schema ≥ 5 reports, the cert_cost section is present with
//     plausible per-filter sizes (nonzero proof bytes and VC nodes —
//     the proof-size baseline must not silently vanish), the
//     observability matrix includes the windowed configuration, and
//     the recorded window_overhead_pct (throughput lost to the
//     sliding-window recorder layer relative to the plain-recorder
//     observed posture) stays under -max-window-overhead;
//   - for schema ≥ 5 reports, the serve posture's observer overhead —
//     the throughput compiled+prof+obs+win loses against
//     compiled+plain, computed from the observability rows — stays
//     under -max-observer-overhead;
//   - for schema ≥ 6 reports, the recovery section is present with
//     both the cold and warm configurations replaying the full
//     journal losslessly, and the recorded warm_recovery_speedup
//     (warm records/sec over cold — the proof cache's contribution
//     to reboot time) meets -min-warm-recovery-speedup.
//
// The parallel floor is core-aware because the report records the
// GOMAXPROCS the ladder ran under: the achievable ceiling on a host
// with C cores is min(goroutines, C), so the effective floor is
// min(-min-parallel-speedup, 0.85 × min(widest rung, C)). On an
// 8-core host the default demands a real 3x; on a single-core host
// it degrades to ~0.85 — "adding goroutines must not regress
// throughput", which is exactly the property a lock convoy would
// break — rather than demanding physically impossible parallelism.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"

	"repro/internal/bench"
)

// gates holds the thresholds one report is checked against.
type gates struct {
	minSpeedup          float64
	maxProfOverhead     float64
	minParallel         float64
	maxWinOverhead      float64
	minWarmRecovery     float64
	maxObserverOverhead float64
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchcheck: ")
	var g gates
	flag.Float64Var(&g.minSpeedup, "min-speedup", 1.0,
		"minimum dispatch_speedup (batch-compiled over single-interpreted packets/sec)")
	flag.Float64Var(&g.maxProfOverhead, "max-profiling-overhead", 15.0,
		"maximum profiling_overhead_pct for schema ≥ 3 reports (percent of compiled throughput)")
	flag.Float64Var(&g.minParallel, "min-parallel-speedup", 3.0,
		"minimum parallel_speedup for schema ≥ 4 reports, capped by the report's recorded core budget (see doc)")
	flag.Float64Var(&g.maxWinOverhead, "max-window-overhead", 20.0,
		"maximum window_overhead_pct for schema ≥ 5 reports (percent of plain-recorder observed throughput)")
	flag.Float64Var(&g.minWarmRecovery, "min-warm-recovery-speedup", 5.0,
		"minimum warm_recovery_speedup for schema ≥ 6 reports (warm journal-replay records/sec over cold)")
	flag.Float64Var(&g.maxObserverOverhead, "max-observer-overhead", 20.0,
		"maximum observer overhead for schema ≥ 5 reports (percent of compiled+plain throughput lost by compiled+prof+obs+win)")
	flag.Parse()

	files := flag.Args()
	if len(files) == 0 {
		newest, err := newestReport(".")
		if err != nil {
			log.Fatal(err)
		}
		files = []string{newest}
	}

	failures := 0
	for _, file := range files {
		for _, msg := range checkFile(file, g) {
			failures++
			fmt.Fprintf(os.Stderr, "FAIL %s: %s\n", file, msg)
		}
	}
	if failures > 0 {
		log.Fatalf("%d check(s) failed", failures)
	}
	fmt.Printf("benchcheck: OK (%d report(s))\n", len(files))
}

// newestReport finds the lexicographically last BENCH_*.json in dir —
// the filenames embed a UTC timestamp, so last sorts newest.
func newestReport(dir string) (string, error) {
	names, err := listReports(dir)
	if err != nil {
		return "", err
	}
	if len(names) == 0 {
		return "", fmt.Errorf("no BENCH_*.json in %s (run paperbench -json first)", dir)
	}
	return names[len(names)-1], nil
}

func listReports(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if !e.IsDir() && len(n) > 6 && n[:6] == "BENCH_" && n[len(n)-5:] == ".json" {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names, nil
}

// checkFile returns the list of failed-check messages for one report.
func checkFile(file string, g gates) []string {
	data, err := os.ReadFile(file)
	if err != nil {
		return []string{err.Error()}
	}
	var rep bench.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return []string{fmt.Sprintf("not a benchmark report: %v", err)}
	}

	var msgs []string
	if rep.Schema < 2 {
		return []string{fmt.Sprintf("schema %d predates the dispatch section (need ≥ 2)", rep.Schema)}
	}
	if len(rep.Dispatch) == 0 {
		return []string{"dispatch section is empty"}
	}

	// Per-shape ordering: compiled must not be slower than interp.
	pps := map[string]map[string]float64{} // shape -> backend -> pps
	for _, d := range rep.Dispatch {
		if pps[d.Shape] == nil {
			pps[d.Shape] = map[string]float64{}
		}
		pps[d.Shape][d.Backend] = d.PPS
	}
	shapes := make([]string, 0, len(pps))
	for s := range pps {
		shapes = append(shapes, s)
	}
	sort.Strings(shapes)
	for _, s := range shapes {
		interp, okI := pps[s]["interp"]
		compiled, okC := pps[s]["compiled"]
		if okI && okC && compiled < interp {
			msgs = append(msgs, fmt.Sprintf(
				"shape %s: compiled backend slower than interpreter (%.0f vs %.0f packets/sec)",
				s, compiled, interp))
		}
	}

	if rep.DispatchSpeedup < g.minSpeedup {
		msgs = append(msgs, fmt.Sprintf(
			"dispatch_speedup %.2fx below floor %.2fx", rep.DispatchSpeedup, g.minSpeedup))
	}

	// Schema 3 added the observability section: always-on compiled
	// profiling must stay within the overhead budget.
	if rep.Schema >= 3 {
		if len(rep.Observability) == 0 {
			msgs = append(msgs, "observability section is empty (schema ≥ 3 requires it)")
		} else if rep.ProfilingOverheadPct > g.maxProfOverhead {
			msgs = append(msgs, fmt.Sprintf(
				"profiling_overhead_pct %.1f%% above ceiling %.1f%%",
				rep.ProfilingOverheadPct, g.maxProfOverhead))
		}
	}

	// Schema 4 added the lock-free scaling ladder: the widest rung must
	// beat one goroutine by the core-aware floor.
	if rep.Schema >= 4 {
		if len(rep.DispatchScaling) == 0 {
			msgs = append(msgs, "dispatch_scaling section is empty (schema ≥ 4 requires it)")
		} else if rep.GOMAXPROCS < 1 {
			msgs = append(msgs, fmt.Sprintf("gomaxprocs %d is implausible", rep.GOMAXPROCS))
		} else {
			widest := 0
			for _, r := range rep.DispatchScaling {
				if r.Goroutines > widest {
					widest = r.Goroutines
				}
			}
			floor := parallelFloor(g.minParallel, widest, rep.GOMAXPROCS)
			if rep.ParallelSpeedup < floor {
				msgs = append(msgs, fmt.Sprintf(
					"parallel_speedup %.2fx below floor %.2fx (flag %.2fx, %d goroutines, gomaxprocs %d)",
					rep.ParallelSpeedup, floor, g.minParallel, widest, rep.GOMAXPROCS))
			}
		}
	}

	// Schema 5 added the certificate-cost baseline and the windowed
	// observability configuration.
	if rep.Schema >= 5 {
		if len(rep.CertCost) == 0 {
			msgs = append(msgs, "cert_cost section is empty (schema ≥ 5 requires it)")
		}
		for _, c := range rep.CertCost {
			if c.ProofBytes <= 0 || c.VCNodes <= 0 {
				msgs = append(msgs, fmt.Sprintf(
					"cert_cost %s: implausible sizes (proof_bytes %d, vc_nodes %d)",
					c.Filter, c.ProofBytes, c.VCNodes))
			}
		}
		windowed := false
		for _, o := range rep.Observability {
			if o.Windowed {
				windowed = true
			}
		}
		if !windowed {
			msgs = append(msgs, "observability matrix lacks the windowed configuration (schema ≥ 5 requires it)")
		} else if rep.WindowOverheadPct > g.maxWinOverhead {
			msgs = append(msgs, fmt.Sprintf(
				"window_overhead_pct %.1f%% above ceiling %.1f%%",
				rep.WindowOverheadPct, g.maxWinOverhead))
		}
		if pct, ok := observerOverheadPct(rep.Observability); !ok {
			msgs = append(msgs, "observability matrix lacks the compiled+plain or compiled+prof+obs+win row (schema ≥ 5 requires both)")
		} else if pct > g.maxObserverOverhead {
			msgs = append(msgs, fmt.Sprintf(
				"observer overhead %.1f%% (compiled+prof+obs+win vs compiled+plain) above ceiling %.1f%%",
				pct, g.maxObserverOverhead))
		}
	}

	// Schema 6 added verified recovery: both cache configurations must
	// have replayed the whole journal, and the warm replay must beat the
	// cold one by the floor — the proof cache is the mechanism that
	// keeps reboot time bounded, so losing it is a regression.
	if rep.Schema >= 6 {
		seen := map[string]bool{}
		for _, r := range rep.Recovery {
			seen[r.Config] = true
			if r.Restored != r.Records || r.Records <= 0 {
				msgs = append(msgs, fmt.Sprintf(
					"recovery %s: restored %d of %d records — the benchmark journal must replay losslessly",
					r.Config, r.Restored, r.Records))
			}
		}
		if !seen["cold"] || !seen["warm"] {
			msgs = append(msgs, "recovery section lacks the cold/warm pair (schema ≥ 6 requires both)")
		} else if rep.WarmRecoverySpeedup < g.minWarmRecovery {
			msgs = append(msgs, fmt.Sprintf(
				"warm_recovery_speedup %.2fx below floor %.2fx",
				rep.WarmRecoverySpeedup, g.minWarmRecovery))
		}
	}
	return msgs
}

// observerOverheadPct is the throughput the serve posture loses to its
// observers: compiled+prof+obs+win (profiling, recorder with windows,
// flight recorder — what `pccmon -serve` boots into) against
// compiled+plain, as a percentage of the plain rate. ok is false when
// either row is missing.
func observerOverheadPct(rows []bench.ObservabilityJSON) (pct float64, ok bool) {
	var plain, serve float64
	for _, r := range rows {
		if r.Backend != "compiled" {
			continue
		}
		switch {
		case !r.Profiling && !r.Observers && !r.Windowed:
			plain = r.PPS
		case r.Profiling && r.Observers && r.Windowed:
			serve = r.PPS
		}
	}
	if plain <= 0 || serve <= 0 {
		return 0, false
	}
	return (plain - serve) / plain * 100, true
}

// parallelFloor is the effective parallel-speedup floor: the flag
// value, capped at 85% of the physically achievable ceiling
// min(goroutines, cores). The cap is what keeps the gate honest on
// narrow hosts — a single-core runner cannot show 3x parallelism, but
// it CAN show a lock convoy (speedup well below 1), which the capped
// floor of 0.85 still catches.
func parallelFloor(flag float64, goroutines, cores int) float64 {
	ceiling := goroutines
	if cores < ceiling {
		ceiling = cores
	}
	capped := 0.85 * float64(ceiling)
	if capped < flag {
		return capped
	}
	return flag
}
