package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
)

func TestParallelFloor(t *testing.T) {
	cases := []struct {
		flag             float64
		goroutines, cpus int
		want             float64
	}{
		{3.0, 8, 8, 3.0},  // wide host: the flag binds
		{3.0, 8, 16, 3.0}, // more cores than goroutines: still the flag
		{3.0, 8, 1, 0.85}, // single core: no-convoy floor
		{3.0, 8, 2, 1.7},  // two cores: 85% of 2
		{3.0, 4, 8, 3.0},  // ladder narrower than the host
		{0.5, 8, 1, 0.5},  // flag below the cap: flag binds
	}
	for _, c := range cases {
		if got := parallelFloor(c.flag, c.goroutines, c.cpus); got != c.want {
			t.Errorf("parallelFloor(%v, %d, %d) = %v, want %v",
				c.flag, c.goroutines, c.cpus, got, c.want)
		}
	}
}

// testGates are the thresholds the fixture report passes.
var testGates = gates{
	minSpeedup:          1.0,
	maxProfOverhead:     15.0,
	minParallel:         3.0,
	maxWinOverhead:      20.0,
	minWarmRecovery:     5.0,
	maxObserverOverhead: 25.0,
}

// writeReport drops a minimal passing current-schema report into dir
// and returns its path; the mutate hook lets each case break one field.
func writeReport(t *testing.T, dir string, mutate func(*bench.Report)) string {
	t.Helper()
	rep := &bench.Report{
		Schema: bench.ReportSchema,
		Dispatch: []bench.DispatchJSON{
			{Backend: "interp", Shape: "single", PPS: 100},
			{Backend: "compiled", Shape: "single", PPS: 500},
			{Backend: "interp", Shape: "batch1024", PPS: 200},
			{Backend: "compiled", Shape: "batch1024", PPS: 900},
		},
		DispatchSpeedup: 9.0,
		CertCost: []bench.CertCostJSON{
			{Filter: "Filter 1", CodeBytes: 64, ProofBytes: 300, ProofNodes: 400, VCNodes: 120, CheckSteps: 500},
		},
		Observability: []bench.ObservabilityJSON{
			{Config: "compiled+plain", Backend: "compiled", PPS: 1000},
			{Config: "compiled+prof+obs", Backend: "compiled", PPS: 900, Profiling: true, Observers: true},
			{Config: "compiled+prof+obs+win", Backend: "compiled", PPS: 880, Profiling: true, Observers: true, Windowed: true},
		},
		ProfilingOverheadPct: 5,
		WindowOverheadPct:    2.2,
		DispatchScaling: []bench.ScalingJSON{
			{Goroutines: 1, PPS: 900},
			{Goroutines: 8, PPS: 3100},
		},
		ParallelSpeedup: 3.4,
		GOMAXPROCS:      8,
		Recovery: []bench.RecoveryJSON{
			{Config: "cold", Records: 200, Restored: 200, RecordsPerSec: 230},
			{Config: "warm", Records: 200, Restored: 200, RecordsPerSec: 9000},
		},
		WarmRecoverySpeedup: 39.1,
	}
	if mutate != nil {
		mutate(rep)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "BENCH_20260807T000000Z.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCheckFileParallelGate(t *testing.T) {
	t.Run("passes", func(t *testing.T) {
		path := writeReport(t, t.TempDir(), nil)
		if msgs := checkFile(path, testGates); len(msgs) != 0 {
			t.Fatalf("unexpected failures: %v", msgs)
		}
	})
	t.Run("slow ladder fails on a wide host", func(t *testing.T) {
		path := writeReport(t, t.TempDir(), func(r *bench.Report) {
			r.ParallelSpeedup = 1.1 // 8 cores available: a convoy
		})
		msgs := checkFile(path, testGates)
		if len(msgs) != 1 || !strings.Contains(msgs[0], "parallel_speedup") {
			t.Fatalf("want one parallel_speedup failure, got %v", msgs)
		}
	})
	t.Run("same ratio passes on a single core", func(t *testing.T) {
		path := writeReport(t, t.TempDir(), func(r *bench.Report) {
			r.ParallelSpeedup = 1.1
			r.GOMAXPROCS = 1 // floor degrades to 0.85
		})
		if msgs := checkFile(path, testGates); len(msgs) != 0 {
			t.Fatalf("unexpected failures: %v", msgs)
		}
	})
	t.Run("convoy fails even on a single core", func(t *testing.T) {
		path := writeReport(t, t.TempDir(), func(r *bench.Report) {
			r.ParallelSpeedup = 0.4
			r.GOMAXPROCS = 1
		})
		msgs := checkFile(path, testGates)
		if len(msgs) != 1 || !strings.Contains(msgs[0], "parallel_speedup") {
			t.Fatalf("want one parallel_speedup failure, got %v", msgs)
		}
	})
	t.Run("schema 4 requires the section", func(t *testing.T) {
		path := writeReport(t, t.TempDir(), func(r *bench.Report) {
			r.DispatchScaling = nil
		})
		msgs := checkFile(path, testGates)
		if len(msgs) != 1 || !strings.Contains(msgs[0], "dispatch_scaling") {
			t.Fatalf("want one dispatch_scaling failure, got %v", msgs)
		}
	})
	t.Run("older schema skips the gate", func(t *testing.T) {
		path := writeReport(t, t.TempDir(), func(r *bench.Report) {
			r.Schema = 3
			r.DispatchScaling = nil
			r.ParallelSpeedup = 0
			r.GOMAXPROCS = 0
		})
		if msgs := checkFile(path, testGates); len(msgs) != 0 {
			t.Fatalf("unexpected failures: %v", msgs)
		}
	})
}

func TestCheckFileSchema5Gate(t *testing.T) {
	t.Run("missing cert_cost fails", func(t *testing.T) {
		path := writeReport(t, t.TempDir(), func(r *bench.Report) {
			r.CertCost = nil
		})
		msgs := checkFile(path, testGates)
		if len(msgs) != 1 || !strings.Contains(msgs[0], "cert_cost") {
			t.Fatalf("want one cert_cost failure, got %v", msgs)
		}
	})
	t.Run("vanished proof sizes fail", func(t *testing.T) {
		path := writeReport(t, t.TempDir(), func(r *bench.Report) {
			r.CertCost[0].ProofBytes = 0
		})
		msgs := checkFile(path, testGates)
		if len(msgs) != 1 || !strings.Contains(msgs[0], "implausible sizes") {
			t.Fatalf("want one implausible-sizes failure, got %v", msgs)
		}
	})
	t.Run("missing windowed config fails", func(t *testing.T) {
		path := writeReport(t, t.TempDir(), func(r *bench.Report) {
			r.Observability = r.Observability[:2] // drop the +win row
		})
		msgs := checkFile(path, testGates)
		if len(msgs) != 2 || !strings.Contains(msgs[0], "windowed configuration") ||
			!strings.Contains(msgs[1], "compiled+prof+obs+win") {
			t.Fatalf("want windowed-configuration and observer-row failures, got %v", msgs)
		}
	})
	t.Run("window overhead above ceiling fails", func(t *testing.T) {
		path := writeReport(t, t.TempDir(), func(r *bench.Report) {
			r.WindowOverheadPct = 45.0
		})
		msgs := checkFile(path, testGates)
		if len(msgs) != 1 || !strings.Contains(msgs[0], "window_overhead_pct") {
			t.Fatalf("want one window_overhead_pct failure, got %v", msgs)
		}
	})
	t.Run("negative overhead is noise, passes", func(t *testing.T) {
		path := writeReport(t, t.TempDir(), func(r *bench.Report) {
			r.WindowOverheadPct = -1.5 // windowed run measured faster
		})
		if msgs := checkFile(path, testGates); len(msgs) != 0 {
			t.Fatalf("unexpected failures: %v", msgs)
		}
	})
}

func TestCheckFileSchema6Gate(t *testing.T) {
	t.Run("missing recovery pair fails", func(t *testing.T) {
		path := writeReport(t, t.TempDir(), func(r *bench.Report) {
			r.Recovery = r.Recovery[:1] // drop the warm row
		})
		msgs := checkFile(path, testGates)
		if len(msgs) != 1 || !strings.Contains(msgs[0], "cold/warm pair") {
			t.Fatalf("want one cold/warm-pair failure, got %v", msgs)
		}
	})
	t.Run("lossy replay fails", func(t *testing.T) {
		path := writeReport(t, t.TempDir(), func(r *bench.Report) {
			r.Recovery[1].Restored = 180
		})
		msgs := checkFile(path, testGates)
		if len(msgs) != 1 || !strings.Contains(msgs[0], "losslessly") {
			t.Fatalf("want one lossless-replay failure, got %v", msgs)
		}
	})
	t.Run("slow warm replay fails", func(t *testing.T) {
		path := writeReport(t, t.TempDir(), func(r *bench.Report) {
			r.WarmRecoverySpeedup = 2.0
		})
		msgs := checkFile(path, testGates)
		if len(msgs) != 1 || !strings.Contains(msgs[0], "warm_recovery_speedup") {
			t.Fatalf("want one warm_recovery_speedup failure, got %v", msgs)
		}
	})
	t.Run("schema 5 skips the gate", func(t *testing.T) {
		path := writeReport(t, t.TempDir(), func(r *bench.Report) {
			r.Schema = 5
			r.Recovery = nil
			r.WarmRecoverySpeedup = 0
		})
		if msgs := checkFile(path, testGates); len(msgs) != 0 {
			t.Fatalf("unexpected failures: %v", msgs)
		}
	})
}

func TestCheckFileObserverGate(t *testing.T) {
	t.Run("overhead computed from the rows", func(t *testing.T) {
		rows := []bench.ObservabilityJSON{
			{Backend: "interp", PPS: 400},
			{Backend: "compiled", PPS: 1000},
			{Backend: "compiled", Profiling: true, PPS: 950},
			{Backend: "compiled", Profiling: true, Observers: true, PPS: 700},
			{Backend: "compiled", Profiling: true, Observers: true, Windowed: true, PPS: 600},
		}
		if pct, ok := observerOverheadPct(rows); !ok || pct != 40 {
			t.Fatalf("observer overhead = %v (ok %t), want 40", pct, ok)
		}
	})
	t.Run("overhead above ceiling fails", func(t *testing.T) {
		path := writeReport(t, t.TempDir(), func(r *bench.Report) {
			r.Observability[2].PPS = 700 // 30% below compiled+plain
			r.WindowOverheadPct = 0
		})
		msgs := checkFile(path, testGates)
		if len(msgs) != 1 || !strings.Contains(msgs[0], "observer overhead 30.0%") {
			t.Fatalf("want one observer-overhead failure, got %v", msgs)
		}
	})
	t.Run("missing compiled+plain row fails", func(t *testing.T) {
		path := writeReport(t, t.TempDir(), func(r *bench.Report) {
			r.Observability = r.Observability[1:]
		})
		msgs := checkFile(path, testGates)
		if len(msgs) != 1 || !strings.Contains(msgs[0], "compiled+plain") {
			t.Fatalf("want one missing-row failure, got %v", msgs)
		}
	})
	t.Run("schema 4 skips the gate", func(t *testing.T) {
		path := writeReport(t, t.TempDir(), func(r *bench.Report) {
			r.Schema = 4
			r.Observability = r.Observability[1:2]
			r.CertCost = nil
			r.Recovery = nil
			r.WarmRecoverySpeedup = 0
		})
		if msgs := checkFile(path, testGates); len(msgs) != 0 {
			t.Fatalf("unexpected failures: %v", msgs)
		}
	})
}
