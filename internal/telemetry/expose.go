// Exposition: a Prometheus-style text page and a JSON snapshot over
// everything a Recorder holds. Reads take the registration lock only
// long enough to list the instruments; the values themselves are
// atomic snapshots, so scraping never stalls the pipeline.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"
)

// HistogramSnapshot is one histogram in a Snapshot. SumSeconds holds
// raw units (bytes, nodes) when Raw is true. The Window* fields are
// present only on recorders built with Options.Window: rate and
// quantiles over roughly the last window span instead of
// since-process-start.
type HistogramSnapshot struct {
	Count      int64         `json:"count"`
	SumSeconds float64       `json:"sum_seconds"`
	Raw        bool          `json:"raw,omitempty"`
	P50        float64       `json:"p50"`
	P90        float64       `json:"p90"`
	P99        float64       `json:"p99"`
	WindowRate float64       `json:"window_rate,omitempty"`
	WindowP50  float64       `json:"window_p50,omitempty"`
	WindowP99  float64       `json:"window_p99,omitempty"`
	Buckets    []BucketCount `json:"buckets,omitempty"`
}

// BucketCount is one cumulative-style histogram bucket (Le in seconds;
// the +Inf bucket has Le = 0 and Inf = true). Exemplar is the
// correlation EventID of the most recent observation that landed in
// this bucket (0 = none): the handle that joins a fat bucket back to
// its span tree, audit record, and flight events via /debug/timeline.
type BucketCount struct {
	Le       float64 `json:"le,omitempty"`
	Inf      bool    `json:"inf,omitempty"`
	Count    int64   `json:"count"`
	Exemplar uint64  `json:"exemplar,omitempty"`
}

// Snapshot is a point-in-time JSON-friendly view of a Recorder.
type Snapshot struct {
	UptimeSeconds float64                      `json:"uptime_seconds"`
	Counters      map[string]int64             `json:"counters,omitempty"`
	Gauges        map[string]int64             `json:"gauges,omitempty"`
	Histograms    map[string]HistogramSnapshot `json:"histograms,omitempty"`
	// Labeled maps family -> label value -> count for labeled counter
	// families (the label key is part of the family's registration).
	Labeled map[string]map[string]int64 `json:"labeled,omitempty"`
	// LabeledHistograms maps family -> label value -> histogram for
	// labeled histogram families (e.g. per-filter dispatch latency).
	LabeledHistograms map[string]map[string]HistogramSnapshot `json:"labeled_histograms,omitempty"`
	// Rates maps counter name -> events/sec over the sliding window;
	// LabeledRates is the same per label value. Present only on
	// recorders built with Options.Window.
	Rates         map[string]float64            `json:"rates,omitempty"`
	LabeledRates  map[string]map[string]float64 `json:"labeled_rates,omitempty"`
	TraceAppended int64                         `json:"trace_appended"`
	TraceDropped  int64                         `json:"trace_dropped"`
}

func snapHistogram(h *Histogram, withBuckets bool) HistogramSnapshot {
	s := HistogramSnapshot{
		Count:      h.Count(),
		SumSeconds: h.SumValue(),
		Raw:        h.Raw(),
		P50:        h.Quantile(0.50),
		P90:        h.Quantile(0.90),
		P99:        h.Quantile(0.99),
	}
	if h.win != nil {
		st, p50, p99 := h.WindowStat()
		s.WindowRate = st.Rate
		s.WindowP50 = p50
		s.WindowP99 = p99
	}
	if withBuckets {
		counts := h.BucketCounts()
		ex := h.Exemplars()
		var cum int64
		for i, c := range counts {
			cum += c
			b := BucketCount{Count: cum, Exemplar: ex[i]}
			if i < len(h.bounds) {
				b.Le = h.bounds[i]
			} else {
				b.Inf = true
			}
			s.Buckets = append(s.Buckets, b)
		}
	}
	return s
}

// histogramSet lists every histogram with a stable, sorted name set:
// the built-in stage histograms plus any dynamically registered ones.
func (r *Recorder) histogramSet() map[string]*Histogram {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]*Histogram, len(r.stageHists)+len(r.hists))
	for stage, h := range r.stageHists {
		out["pcc_stage_"+stage+"_seconds"] = h
	}
	for name, h := range r.hists {
		out[name] = h
	}
	return out
}

// Snapshot captures the recorder's current state. Individual values
// are read atomically; the snapshot as a whole is not a consistent
// cut while the pipeline is running (same contract as kernel.Stats).
func (r *Recorder) Snapshot(withBuckets bool) Snapshot {
	if r == nil {
		return Snapshot{}
	}
	s := Snapshot{
		UptimeSeconds: time.Since(r.start).Seconds(),
		Counters:      map[string]int64{},
		Gauges:        map[string]int64{},
		Histograms:    map[string]HistogramSnapshot{},
		TraceAppended: r.trace.Appended(),
		TraceDropped:  r.trace.Dropped(),
	}
	windowed := r.winOpts != nil
	if windowed {
		s.Rates = map[string]float64{}
		s.LabeledRates = map[string]map[string]float64{}
	}
	r.mu.RLock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
		if windowed {
			s.Rates[name] = c.Window().Stat().Rate
		}
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	if len(r.labeled) > 0 {
		s.Labeled = map[string]map[string]int64{}
		for fam, lf := range r.labeled {
			vals := make(map[string]int64, len(lf.vals))
			var rates map[string]float64
			if windowed {
				rates = make(map[string]float64, len(lf.vals))
			}
			for v, c := range lf.vals {
				vals[v] = c.Value()
				if windowed {
					rates[v] = c.Window().Stat().Rate
				}
			}
			s.Labeled[fam] = vals
			if windowed {
				s.LabeledRates[fam] = rates
			}
		}
	}
	if len(r.labeledHists) > 0 {
		s.LabeledHistograms = map[string]map[string]HistogramSnapshot{}
		for fam, lf := range r.labeledHists {
			vals := make(map[string]HistogramSnapshot, len(lf.vals))
			for v, h := range lf.vals {
				vals[v] = snapHistogram(h, withBuckets)
			}
			s.LabeledHistograms[fam] = vals
		}
	}
	r.mu.RUnlock()
	for name, h := range r.histogramSet() {
		s.Histograms[name] = snapHistogram(h, withBuckets)
	}
	return s
}

// WriteJSON writes the snapshot (with buckets) as indented JSON.
func (r *Recorder) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot(true))
}

// fmtFloat renders a float the way Prometheus text format expects.
func fmtFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// WritePrometheus writes a Prometheus-style text exposition page:
// every counter and gauge as a single sample, every histogram as
// cumulative _bucket{le=...} samples plus _sum and _count, and the
// tracer's own accounting as pcc_trace_events_total /
// pcc_trace_dropped_total. Metric families are sorted by name so the
// page is diff-stable.
func (r *Recorder) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	type line struct{ name, text string }
	var lines []line

	r.mu.RLock()
	for name, c := range r.counters {
		lines = append(lines, line{name, fmt.Sprintf("# TYPE %s counter\n%s %d\n", name, name, c.Value())})
	}
	for name, g := range r.gauges {
		lines = append(lines, line{name, fmt.Sprintf("# TYPE %s gauge\n%s %d\n", name, name, g.Value())})
	}
	for fam, lf := range r.labeled {
		vals := make([]string, 0, len(lf.vals))
		for v := range lf.vals {
			vals = append(vals, v)
		}
		sort.Strings(vals)
		text := fmt.Sprintf("# TYPE %s counter\n", fam)
		for _, v := range vals {
			// Label values are untrusted (filter owner names); escape
			// them so the page stays parseable.
			text += fmt.Sprintf("%s{%s=\"%s\"} %d\n", fam, lf.key, EscapeLabelValue(v), lf.vals[v].Value())
		}
		lines = append(lines, line{fam, text})
	}
	for fam, lf := range r.labeledHists {
		vals := make([]string, 0, len(lf.vals))
		for v := range lf.vals {
			vals = append(vals, v)
		}
		sort.Strings(vals)
		text := fmt.Sprintf("# TYPE %s histogram\n", fam)
		for _, v := range vals {
			h := lf.vals[v]
			ev := EscapeLabelValue(v)
			counts := h.BucketCounts()
			var cum int64
			for i, c := range counts {
				cum += c
				le := "+Inf"
				if i < len(h.bounds) {
					le = fmtFloat(h.bounds[i])
				}
				text += fmt.Sprintf("%s_bucket{%s=\"%s\",le=%q} %d\n", fam, lf.key, ev, le, cum)
			}
			text += fmt.Sprintf("%s_sum{%s=\"%s\"} %s\n", fam, lf.key, ev, fmtFloat(h.SumValue()))
			text += fmt.Sprintf("%s_count{%s=\"%s\"} %d\n", fam, lf.key, ev, cum)
		}
		lines = append(lines, line{fam, text})
	}
	r.mu.RUnlock()

	lines = append(lines,
		line{"pcc_trace_events_total", fmt.Sprintf("# TYPE pcc_trace_events_total counter\npcc_trace_events_total %d\n", r.trace.Appended())},
		line{"pcc_trace_dropped_total", fmt.Sprintf("# TYPE pcc_trace_dropped_total counter\npcc_trace_dropped_total %d\n", r.trace.Dropped())},
	)

	for name, h := range r.histogramSet() {
		text := fmt.Sprintf("# TYPE %s histogram\n", name)
		counts := h.BucketCounts()
		var cum int64
		for i, c := range counts {
			cum += c
			le := "+Inf"
			if i < len(h.bounds) {
				le = fmtFloat(h.bounds[i])
			}
			text += fmt.Sprintf("%s_bucket{le=%q} %d\n", name, le, cum)
		}
		text += fmt.Sprintf("%s_sum %s\n", name, fmtFloat(h.SumValue()))
		text += fmt.Sprintf("%s_count %d\n", name, cum)
		lines = append(lines, line{name, text})
	}

	sort.Slice(lines, func(i, j int) bool { return lines[i].name < lines[j].name })
	for _, l := range lines {
		if _, err := io.WriteString(w, l.text); err != nil {
			return err
		}
	}
	return nil
}
