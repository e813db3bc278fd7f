package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// small is the self-check's reduced copy of the benchmark's sizes.
var small = sizes{
	PoolPerKind: 6, PreloadPerKind: 2, PreloadLive: 40,
	JournalPerKind: 3, JournalRecords: 96, Batches: 8, Procs: 2,
	CompanionBatches: 4, ChurnRound: 4, CompanionRestarts: 1,
	Ledger: ledgerSizes{Rounds: 2, Batches: 10, Singles: 64, Validations: 2,
		Appends: 20, HitProbes: 10, Large: 200, Mid: 100},
}

// TestMain lets the test binary stand in for the benchmark's binary: an
// untraced run spawns its measuring processes from its own executable
// with -child first, and those measure at the reduced size.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(cli(os.Args[1:], small, os.Stdout))
	}
	os.Exit(m.Run())
}

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSelfCheck runs every workload of BENCHMARK.json at a reduced size,
// untraced (through its measuring processes) and traced, and checks
// that the run is correct and prints every metric the file names, with
// its unit, in the text report and in the result line.
func TestSelfCheck(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		t.Fatal(err)
	}
	for _, w := range sp.Workloads {
		for _, traced := range []bool{false, true} {
			want := sp.EndToEnd
			if traced {
				want = sp.PerLayer
			}
			var out bytes.Buffer
			cfg := config{workload: w.Name, seed: 7, seconds: 0.3, trace: traced, dir: t.TempDir(), sz: small}
			res, err := run(cfg, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", w.Name, traced, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s",
					w.Name, traced, res.Correct, res.Failed, res.Attempted, out.String())
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, traced, len(res.Metrics), len(want))
			}
			text := out.String()
			if !strings.Contains(text, "failed_frac") || !strings.Contains(text, "nproc=") {
				t.Errorf("%s trace=%v: report lacks failed_frac or the run header", w.Name, traced)
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.Name, traced, m.Name, got, m.Unit)
				}
				line := regexp.MustCompile(`(?m)^\s+` + regexp.QuoteMeta(m.Name) + `\s+\S+\s+` + regexp.QuoteMeta(m.Unit) + `\s+n=\d+$`)
				if !line.MatchString(text) {
					t.Errorf("%s trace=%v: no report line for %s in %s", w.Name, traced, m.Name, m.Unit)
				}
			}
		}
	}
}
