// Labeled counter families: one metric family fanned out over the
// values of a single label (e.g. pcc_filter_accepts_total{filter=...}
// keyed by the installing owner). Filter owners are untrusted strings
// — a user can install a filter named `evil"}\n` — so the exposition
// path escapes label values per the Prometheus text-format rules
// instead of trusting them into the page.
package telemetry

import "strings"

// labeledFamily is one counter family keyed by the values of a single
// label.
type labeledFamily struct {
	key  string // the label key, e.g. "filter"
	vals map[string]*Counter
}

// LabeledCounter returns the counter for one (family, labelValue)
// pair, registering the family (with its label key) and the value's
// counter on first use. The first registration fixes the family's
// label key; later calls reuse it. Returns nil (a valid no-op
// counter) for a nil recorder.
func (r *Recorder) LabeledCounter(family, labelKey, labelValue string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	lf := r.labeled[family]
	var c *Counter
	if lf != nil {
		c = lf.vals[labelValue]
	}
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	lf = r.labeled[family]
	if lf == nil {
		lf = &labeledFamily{key: labelKey, vals: map[string]*Counter{}}
		r.labeled[family] = lf
	}
	if c = lf.vals[labelValue]; c == nil {
		c = r.newCounter()
		lf.vals[labelValue] = c
	}
	return c
}

// labeledHistFamily is one histogram family keyed by the values of a
// single label (e.g. pcc_filter_run_seconds{filter=...}).
type labeledHistFamily struct {
	key    string
	bounds []float64 // fixed at family registration
	vals   map[string]*Histogram
}

// LabeledHistogram returns the histogram for one (family, labelValue)
// pair, registering the family on first use. bounds (nil means the
// recorder's default) is fixed by the first registration so every
// member of a family exposes the same buckets; later calls reuse it.
// Returns nil (a valid no-op histogram) for a nil recorder. Hot paths
// must cache the returned pointer — the lookup takes the registration
// lock.
func (r *Recorder) LabeledHistogram(family, labelKey, labelValue string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	lf := r.labeledHists[family]
	var h *Histogram
	if lf != nil {
		h = lf.vals[labelValue]
	}
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	lf = r.labeledHists[family]
	if lf == nil {
		if bounds == nil {
			bounds = r.bounds
		}
		lf = &labeledHistFamily{key: labelKey, bounds: bounds, vals: map[string]*Histogram{}}
		r.labeledHists[family] = lf
	}
	if h = lf.vals[labelValue]; h == nil {
		h = r.newHist(lf.bounds)
		lf.vals[labelValue] = h
	}
	return h
}

// labelEscaper implements the Prometheus text exposition escaping for
// label values: backslash, double quote, and line feed.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// EscapeLabelValue renders an arbitrary string as a valid Prometheus
// label value (the caller supplies the surrounding quotes).
func EscapeLabelValue(s string) string { return labelEscaper.Replace(s) }
