package telemetry

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestLabeledCounterExposition: labeled families expose one sample
// per label value, sorted, under a single TYPE header.
func TestLabeledCounterExposition(t *testing.T) {
	r := New()
	r.LabeledCounter("pcc_filter_accepts_total", "filter", "b").Add(2)
	r.LabeledCounter("pcc_filter_accepts_total", "filter", "a").Add(7)
	if got := r.LabeledCounter("pcc_filter_accepts_total", "filter", "a").Value(); got != 7 {
		t.Fatalf("counter identity lost across lookups: %d", got)
	}

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	page := buf.String()
	ia := strings.Index(page, `pcc_filter_accepts_total{filter="a"} 7`)
	ib := strings.Index(page, `pcc_filter_accepts_total{filter="b"} 2`)
	if ia < 0 || ib < 0 || ia > ib {
		t.Fatalf("labeled samples missing or unsorted:\n%s", page)
	}
	if strings.Count(page, "# TYPE pcc_filter_accepts_total counter") != 1 {
		t.Fatalf("family must have exactly one TYPE header:\n%s", page)
	}

	snap := r.Snapshot(false)
	if snap.Labeled["pcc_filter_accepts_total"]["a"] != 7 {
		t.Fatalf("snapshot missing labeled counters: %+v", snap.Labeled)
	}
}

// TestLabelEscaping: filter names carrying quotes, backslashes, and
// newlines — all installable owner strings — must still produce valid
// Prometheus text in every labeled family (counters and histograms):
// every sample on one line, label values correctly escaped, and no
// metric line smuggled onto the page.
func TestLabelEscaping(t *testing.T) {
	r := New()
	hostile := []string{
		`quote"name`,
		`back\slash`,
		"new\nline",
		"all\\three\"at\nonce",
		`evil"}` + "\nfake_metric 1",
	}
	for _, name := range hostile {
		r.LabeledCounter("pcc_filter_cycles_total", "filter", name).Add(5)
		r.LabeledHistogram("pcc_filter_run_seconds", "filter", name, nil).Observe(time.Microsecond)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	page := buf.String()

	for _, want := range []string{
		`pcc_filter_cycles_total{filter="quote\"name"} 5`,
		`pcc_filter_cycles_total{filter="back\\slash"} 5`,
		`pcc_filter_cycles_total{filter="new\nline"} 5`,
		`pcc_filter_cycles_total{filter="all\\three\"at\nonce"} 5`,
		`pcc_filter_cycles_total{filter="evil\"}\nfake_metric 1"} 5`,
		`pcc_filter_run_seconds_count{filter="evil\"}\nfake_metric 1"} 1`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("exposition missing escaped sample %q:\n%s", want, page)
		}
	}

	// Every line on the page must be a comment or a well-formed
	// sample; a raw newline or quote in a label value would break
	// this.
	label := `[a-zA-Z_]+="(\\.|[^"\\])*"`
	sample := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{` + label + `(,` + label + `)*\})? -?[0-9.eE+-]+(Inf)?$`)
	for _, ln := range strings.Split(strings.TrimSuffix(page, "\n"), "\n") {
		if strings.HasPrefix(ln, "#") {
			continue
		}
		if !sample.MatchString(ln) {
			t.Errorf("invalid exposition line %q", ln)
		}
	}
}

func TestEscapeLabelValue(t *testing.T) {
	for in, want := range map[string]string{
		"plain":     "plain",
		`a\b`:       `a\\b`,
		`a"b`:       `a\"b`,
		"a\nb":      `a\nb`,
		"\\\"\n":    `\\\"\n`,
		"Filter 1":  "Filter 1",
		"tab\tsafe": "tab\tsafe", // tabs are legal in label values
	} {
		if got := EscapeLabelValue(in); got != want {
			t.Errorf("EscapeLabelValue(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestLabeledCounterNilRecorder: the nil-recorder path must stay a
// no-op.
func TestLabeledCounterNilRecorder(t *testing.T) {
	var r *Recorder
	c := r.LabeledCounter("f", "k", "v")
	c.Add(3)
	if c.Value() != 0 {
		t.Fatal("nil recorder produced a live counter")
	}
}

// TestHistogramEdgeBuckets: an observation exactly on a bucket
// boundary must land in that bucket (le is an inclusive upper bound),
// and an observation above the top bound must land only in +Inf.
func TestHistogramEdgeBuckets(t *testing.T) {
	h := NewHistogram([]float64{1e-6, 1e-3, 1}) // 1µs, 1ms, 1s; +Inf implicit

	h.Observe(time.Microsecond) // exactly the first bound
	counts := h.BucketCounts()
	if counts[0] != 1 {
		t.Fatalf("boundary observation missed its bucket: %v", counts)
	}

	h.Observe(time.Millisecond) // exactly the second bound
	h.Observe(time.Second)      // exactly the top finite bound
	counts = h.BucketCounts()
	if counts[1] != 1 || counts[2] != 1 || counts[3] != 0 {
		t.Fatalf("boundary observations misbucketed: %v", counts)
	}

	h.Observe(5 * time.Second) // above every finite bound
	counts = h.BucketCounts()
	if counts[3] != 1 {
		t.Fatalf("above-top observation not in +Inf: %v", counts)
	}
	if h.Count() != 4 {
		t.Fatalf("count %d, want 4", h.Count())
	}

	// The exposition's cumulative buckets must agree: le="1" covers
	// everything but the +Inf overflow.
	r := New()
	r.mu.Lock()
	r.hists["pcc_edge_seconds"] = h
	r.mu.Unlock()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	page := buf.String()
	for _, want := range []string{
		`pcc_edge_seconds_bucket{le="1e-06"} 1`,
		`pcc_edge_seconds_bucket{le="0.001"} 2`,
		`pcc_edge_seconds_bucket{le="1"} 3`,
		`pcc_edge_seconds_bucket{le="+Inf"} 4`,
		`pcc_edge_seconds_count 4`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("exposition missing %q:\n%s", want, page)
		}
	}
}
