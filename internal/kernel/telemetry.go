// Telemetry plumbing: the kernel optionally carries a
// *telemetry.Recorder and reports every pipeline stage through it —
// spans for negotiate/validate/commit/dispatch with child spans for
// the validation sub-stages, plus outcome counters and the installed-
// filter gauge. All hooks go through the nil-safe *telem bundle so
// the uninstrumented kernel pays exactly one atomic load and a nil
// check per operation (benchmarked at zero extra allocations on the
// dispatch path).
package kernel

import (
	"sync"
	"time"

	pcc "repro"
	"repro/internal/telemetry"
)

// Telemetry metric names the kernel exports (the exposition page's
// contract; scripts/verify.sh greps for these).
const (
	MetricInstalled      = "pcc_install_installed_total"
	MetricRejected       = "pcc_install_rejected_total"
	MetricCacheHits      = "pcc_cache_hits_total"
	MetricCacheMisses    = "pcc_cache_misses_total"
	MetricCacheEvictions = "pcc_cache_evictions_total"
	MetricPackets        = "pcc_packets_total"
	MetricFiltersGauge   = "pcc_filters_installed"
	// Per-filter families, labeled by the installing owner (an
	// untrusted string — the exposition escapes it).
	MetricFilterAccepts = "pcc_filter_accepts_total"
	MetricFilterCycles  = "pcc_filter_cycles_total"
	// MetricFilterLatency is the per-owner run-latency histogram
	// family, on the sub-µs log-scale dispatch buckets. Dispatch feeds
	// it once per filter per batch: every run of the batch is observed
	// at the batch's mean run time, so counts and sums are exact and
	// the buckets show batch-to-batch spread (docs/OBSERVABILITY.md).
	MetricFilterLatency = "pcc_filter_run_seconds"
	// Robustness metrics (robust.go): rejections classified by reason
	// (limit, deadline, panic, proof, quarantine, queue_full) and the
	// count of currently embargoed producers.
	MetricRejects         = "pcc_rejects_total"
	MetricQuarantineGauge = "pcc_quarantined_owners"
	// MetricDemotions counts compiled forms demoted to the interpreter
	// after a dispatch fault (demote.go): kernel-integrity events,
	// unlabeled so its cost does not grow with owner history.
	MetricDemotions = "pcc_dispatch_demotions_total"
	// Certificate-cost value histograms (raw units, not seconds): the
	// proof's size on the wire in bytes and the generated VC's term
	// size in LF nodes, observed once per full (non-cached) successful
	// validation. This is the baseline proof-size engineering will
	// regress against.
	MetricProofBytes = "pcc_proof_bytes"
	MetricVCNodes    = "pcc_vc_nodes"
)

// certSizeBounds is the bucket ladder for the certificate-cost value
// histograms: a 1-2-5 ladder from 8 to ~1M raw units (bytes or
// nodes), wide enough for a trivial accept proof and a proof bomb on
// the same axis.
var certSizeBounds = telemetry.LogBounds(8, 1<<20)

// telem bundles a recorder with its pre-registered instruments so hot
// paths never take the recorder's registration lock. A nil *telem is
// the disabled state; every method tolerates it.
type telem struct {
	rec            *telemetry.Recorder
	installed      *telemetry.Counter
	rejected       *telemetry.Counter
	cacheHits      *telemetry.Counter
	cacheMisses    *telemetry.Counter
	cacheEvictions *telemetry.Counter
	packets        *telemetry.Counter
	filters        *telemetry.Gauge
	quarantined    *telemetry.Gauge
	demotions      *telemetry.Counter
	// perFilter caches each owner's *filterObs (see filter).
	perFilter sync.Map
}

func newTelem(rec *telemetry.Recorder) *telem {
	return &telem{
		rec:            rec,
		installed:      rec.Counter(MetricInstalled),
		rejected:       rec.Counter(MetricRejected),
		cacheHits:      rec.Counter(MetricCacheHits),
		cacheMisses:    rec.Counter(MetricCacheMisses),
		cacheEvictions: rec.Counter(MetricCacheEvictions),
		packets:        rec.Counter(MetricPackets),
		filters:        rec.Gauge(MetricFiltersGauge),
		quarantined:    rec.Gauge(MetricQuarantineGauge),
		demotions:      rec.Counter(MetricDemotions),
	}
}

// span opens a root span for a stage, carrying the operation's
// correlation EventID (no-op Span when disabled).
func (t *telem) span(stage, detail string, eid uint64) telemetry.Span {
	if t == nil {
		return telemetry.Span{}
	}
	return t.rec.StartSpanEvent(stage, detail, eid)
}

// probe records the cache-probe child span and the hit/miss counter.
func (t *telem) probe(parent telemetry.Span, start time.Time, hit bool) {
	if t == nil {
		return
	}
	verdict := "miss"
	ctr := t.cacheMisses
	if hit {
		verdict = "hit"
		ctr = t.cacheHits
	}
	ctr.Inc()
	t.rec.RecordSpan(telemetry.StageCacheProbe, verdict, parent.ID(), parent.Event(), start, time.Since(start), nil)
}

// validationStages replays pcc.Validate's stage breakdown as child
// spans of the validation span. The stages ran back to back inside
// Validate, so each child starts where the previous one ended.
func (t *telem) validationStages(parent telemetry.Span, owner string, start time.Time, st *pcc.ValidationStats) {
	if t == nil {
		return
	}
	id := parent.ID()
	eid := parent.Event()
	cur := start
	for _, stage := range []struct {
		name string
		dur  time.Duration
	}{
		{telemetry.StageParse, st.Parse},
		{telemetry.StageLFSig, st.SigCheck},
		{telemetry.StageVCGen, st.VCGen},
		{telemetry.StageLFCheck, st.Check},
	} {
		t.rec.RecordSpan(stage.name, owner, id, eid, cur, stage.dur, nil)
		cur = cur.Add(stage.dur)
	}
}

// wcet records the static cost-bound analysis child span.
func (t *telem) wcet(parent telemetry.Span, owner string, start time.Time, err error) {
	if t == nil {
		return
	}
	t.rec.RecordSpan(telemetry.StageWCET, owner, parent.ID(), parent.Event(), start, time.Since(start), err)
}

// certCost records the certificate-cost value histograms for one full
// (non-cached) successful validation, with the install's EventID as
// the bucket exemplar.
func (t *telem) certCost(st *pcc.ValidationStats, eid uint64) {
	if t == nil || st == nil {
		return
	}
	t.rec.ValueHistogram(MetricProofBytes, certSizeBounds).ObserveValueEID(float64(st.ProofBytes), eid)
	t.rec.ValueHistogram(MetricVCNodes, certSizeBounds).ObserveValueEID(float64(st.VCNodes), eid)
}

// evicted bumps the eviction counter by n.
func (t *telem) evicted(n int64) {
	if t == nil || n == 0 {
		return
	}
	t.cacheEvictions.Add(n)
}

// outcome counts one install attempt's final verdict.
func (t *telem) outcome(ok bool) {
	if t == nil {
		return
	}
	if ok {
		t.installed.Inc()
	} else {
		t.rejected.Inc()
	}
}

// reject classifies one rejection into the pcc_rejects_total family.
// The reason string is kernel-controlled vocabulary, never attacker
// bytes, but the exposition escapes label values regardless.
func (t *telem) reject(reason string) {
	if t == nil || reason == "" {
		return
	}
	t.rec.LabeledCounter(MetricRejects, "reason", reason).Inc()
}

// demoted counts one compiled form demoted after a dispatch fault.
func (t *telem) demoted() {
	if t == nil {
		return
	}
	t.demotions.Inc()
}

// setQuarantined publishes the embargoed-producer count gauge.
func (t *telem) setQuarantined(n int) {
	if t == nil {
		return
	}
	t.quarantined.Set(int64(n))
}

// packetBatch counts a whole delivered batch in one add; now is a
// recent clock reading in UnixNanos for the counter's window.
func (t *telem) packetBatch(n, now int64) {
	if t == nil || n == 0 {
		return
	}
	t.packets.AddAt(now, n)
}

// filterObs is one owner's per-filter dispatch instruments.
type filterObs struct {
	cycles, accepts *telemetry.Counter
	latency         *telemetry.Histogram
}

// filter returns owner's dispatch instruments, nil when telemetry is
// off. They are registered with the recorder on first use and cached
// in the bundle, so dispatch pays one lock-free map load per filter per
// batch instead of three lookups under the registration lock.
func (t *telem) filter(owner string) *filterObs {
	if t == nil {
		return nil
	}
	if o, ok := t.perFilter.Load(owner); ok {
		return o.(*filterObs)
	}
	o, _ := t.perFilter.LoadOrStore(owner, &filterObs{
		cycles:  t.rec.LabeledCounter(MetricFilterCycles, "filter", owner),
		accepts: t.rec.LabeledCounter(MetricFilterAccepts, "filter", owner),
		latency: t.rec.LabeledHistogram(MetricFilterLatency, "filter", owner, telemetry.DispatchLatencyBounds),
	})
	return o.(*filterObs)
}

// runBatch attributes a whole batch of one filter's runs: its cycles
// and accepts. now is a recent clock reading in UnixNanos for the
// counters' windows.
func (o *filterObs) runBatch(cycles, accepts, now int64) {
	if o == nil {
		return
	}
	if cycles != 0 {
		o.cycles.AddAt(now, cycles)
	}
	if accepts != 0 {
		o.accepts.AddAt(now, accepts)
	}
}

// setFilters publishes the installed-filter count gauge.
func (t *telem) setFilters(n int) {
	if t == nil {
		return
	}
	t.filters.Set(int64(n))
}

// SetRecorder attaches a telemetry recorder to the kernel (nil
// detaches). The swap is atomic, so it is safe while installs and
// deliveries are in flight; operations observe either the old or the
// new recorder. With no recorder attached the instrumented paths cost
// one atomic load + nil check and allocate nothing.
func (k *Kernel) SetRecorder(rec *telemetry.Recorder) {
	if rec == nil {
		k.tel.Store(nil)
		return
	}
	k.tel.Store(newTelem(rec))
}

// Recorder returns the attached telemetry recorder, or nil.
func (k *Kernel) Recorder() *telemetry.Recorder {
	t := k.tel.Load()
	if t == nil {
		return nil
	}
	return t.rec
}
