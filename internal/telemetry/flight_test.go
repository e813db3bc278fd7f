package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestFlightRecorderRingAndJSON(t *testing.T) {
	f := NewFlightRecorder(4)
	if f.Cap() != 4 {
		t.Fatalf("Cap = %d, want 4", f.Cap())
	}
	for i := 0; i < 6; i++ {
		f.RecordEvent(FlightConfigChange, "owner", "detail", 0)
	}
	if f.Appended() != 6 || f.Dropped() != 2 {
		t.Fatalf("appended/dropped = %d/%d, want 6/2", f.Appended(), f.Dropped())
	}
	evs := f.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	for i, e := range evs {
		if e.Seq != uint64(i+2) {
			t.Fatalf("event %d: seq %d, want %d (oldest-first after wrap)", i, e.Seq, i+2)
		}
		if e.Kind != FlightConfigChange || e.Owner != "owner" {
			t.Fatalf("event %d: %+v", i, e)
		}
		if e.TimeUnixNanos <= 0 || time.Since(time.Unix(0, e.TimeUnixNanos)) > time.Minute {
			t.Fatalf("event %d: implausible timestamp %d", i, e.TimeUnixNanos)
		}
	}

	var buf bytes.Buffer
	if err := f.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Capacity int           `json:"capacity"`
		Appended int64         `json:"appended"`
		Dropped  int64         `json:"dropped"`
		Events   []FlightEvent `json:"events"`
	}
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("WriteJSON output not JSON: %v\n%s", err, buf.String())
	}
	if snap.Capacity != 4 || snap.Appended != 6 || snap.Dropped != 2 || len(snap.Events) != 4 {
		t.Fatalf("snapshot %+v", snap)
	}
}

func TestFlightRecorderNilAndEmpty(t *testing.T) {
	var f *FlightRecorder
	f.RecordEvent(FlightMemoryFault, "x", "y", 0) // must not panic
	if f.Appended() != 0 || f.Dropped() != 0 || f.Cap() != 0 || f.Events() != nil {
		t.Fatal("nil recorder must be a silent no-op")
	}
	var buf bytes.Buffer
	if err := NewFlightRecorder(0).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"events": []`) {
		t.Fatalf("empty ring must serialize events as [], got %s", buf.String())
	}
}

func TestLogBounds(t *testing.T) {
	b := LogBounds(1e-6, 1e-3)
	want := []float64{1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3}
	if len(b) != len(want) {
		t.Fatalf("LogBounds(1e-6, 1e-3) = %v, want %v", b, want)
	}
	for i := range b {
		if b[i] < want[i]*0.999 || b[i] > want[i]*1.001 {
			t.Fatalf("bound %d = %g, want %g", i, b[i], want[i])
		}
	}
	d := DispatchLatencyBounds
	if d[0] >= 1e-7 {
		t.Fatalf("dispatch bounds must start sub-100ns: %v", d[0])
	}
	for i := 1; i < len(d); i++ {
		if d[i] <= d[i-1] {
			t.Fatalf("dispatch bounds not ascending at %d: %v", i, d)
		}
	}
}

// TestDispatchStageSubMicroBuckets: the dispatch stages must resolve a
// ~200 ns observation into a sub-µs bucket (not the first default
// bucket), while explicit Options.Buckets still override every stage.
func TestDispatchStageSubMicroBuckets(t *testing.T) {
	r := New()
	h := r.StageHistogram(StageDispatch)
	h.Observe(200 * time.Nanosecond)
	counts := h.BucketCounts()
	bounds := h.Bounds()
	for i, c := range counts {
		if c == 1 {
			if i >= len(bounds) || bounds[i] >= 1e-6 {
				t.Fatalf("200ns landed at bucket %d (le %v), want a sub-µs bucket", i, bounds)
			}
			break
		}
	}
	if got := r.StageHistogram(StageVCGen).Bounds(); &got[0] != &DefaultLatencyBounds[0] {
		t.Fatal("non-dispatch stages must keep DefaultLatencyBounds")
	}
	custom := NewWith(Options{Buckets: []float64{1, 2}})
	if got := custom.StageHistogram(StageDispatchBatch).Bounds(); len(got) != 2 {
		t.Fatalf("explicit Buckets must win for dispatch stages too, got %v", got)
	}
}

// TestLabeledHistogramExposition: registration, identity on re-lookup,
// label escaping, and the cumulative bucket/sum/count exposition
// contract for labeled histogram families.
func TestLabeledHistogramExposition(t *testing.T) {
	r := New()
	h := r.LabeledHistogram("pcc_filter_run_seconds", "filter", `ow"ner`, []float64{1e-6, 1e-3})
	if h2 := r.LabeledHistogram("pcc_filter_run_seconds", "filter", `ow"ner`, nil); h2 != h {
		t.Fatal("re-lookup must return the registered histogram")
	}
	h.Observe(1 * time.Microsecond)  // first bucket
	h.Observe(10 * time.Microsecond) // second bucket
	h.Observe(time.Second)           // +Inf
	r.LabeledHistogram("pcc_filter_run_seconds", "filter", "other", nil).Observe(time.Millisecond)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	page := buf.String()
	for _, want := range []string{
		"# TYPE pcc_filter_run_seconds histogram",
		`pcc_filter_run_seconds_bucket{filter="ow\"ner",le="1e-06"} 1`,
		`pcc_filter_run_seconds_bucket{filter="ow\"ner",le="0.001"} 2`,
		`pcc_filter_run_seconds_bucket{filter="ow\"ner",le="+Inf"} 3`,
		`pcc_filter_run_seconds_count{filter="ow\"ner"} 3`,
		`pcc_filter_run_seconds_bucket{filter="other",le="0.001"} 1`,
		`pcc_filter_run_seconds_count{filter="other"} 1`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("exposition missing %q:\n%s", want, page)
		}
	}

	snap := r.Snapshot(false)
	fam := snap.LabeledHistograms["pcc_filter_run_seconds"]
	if fam == nil || fam[`ow"ner`].Count != 3 || fam["other"].Count != 1 {
		t.Fatalf("snapshot labeled histograms wrong: %+v", snap.LabeledHistograms)
	}

	var nilRec *Recorder
	if nilRec.LabeledHistogram("f", "k", "v", nil) != nil {
		t.Fatal("nil recorder must hand out nil histograms")
	}
}
