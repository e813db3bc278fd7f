// Package kernel simulates the code consumer of Figure 1 as a running
// system: a SPIN-style extensible kernel that publishes safety
// policies, validates and installs PCC binaries from untrusted
// processes, and dispatches events — network packets to installed
// filters, resource-table invocations to installed handlers — all with
// zero run-time checking of the extensions.
//
// It is the glue the paper's two services (§2 resource access, §3
// packet filtering) would live in, and exists so the examples and
// tests can exercise realistic install/dispatch/uninstall lifecycles,
// including the accounting (validation cost, per-extension cycles)
// that Figure 9 is about.
//
// Installation is a two-stage pipeline (pipeline.go): an expensive
// validation stage that runs lock-free (memoized by the proof cache,
// cache.go) and a short commit section under the kernel's writer
// mutex. Dispatch takes NO lock at all: the installed-filter set is
// published as an immutable snapshot behind an atomic pointer
// (table.go), deliveries pin an epoch and load it once (epoch.go),
// and the hot counters are sharded per dispatch environment
// (shard.go) — so packet delivery never waits, not even for an
// install's commit section. See DESIGN.md, "Concurrency model".
package kernel

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	pcc "repro"
	"repro/internal/alpha"
	"repro/internal/machine"
	"repro/internal/pktgen"
	"repro/internal/policy"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// Stats is an approximate, lock-free snapshot of the kernel
// accounting (see the Stats method for the exact contract): each field
// is aggregated from atomic counters at scrape time, but the snapshot
// as a whole is not a consistent cut while installs or deliveries are
// in flight. For exact cross-counter invariants, quiesce the kernel
// first; for stage-level latency attribution, attach a
// telemetry.Recorder (SetRecorder) instead of polling Stats.
type Stats struct {
	// Validations and Rejections count install attempts.
	Validations int
	Rejections  int
	// ValidationMicros is wall-clock spent in actual proof checking
	// (cache hits contribute nothing — that is the point), so startup
	// and per-packet costs are in one currency (how Figure 9 plots
	// them).
	ValidationMicros float64
	// Packets delivered and per-owner accepts.
	Packets int
	// ExtensionCycles is total simulated time spent inside extensions.
	ExtensionCycles int64

	// Proof-cache accounting: a hit means an install skipped VC
	// generation and LF checking entirely.
	CacheHits      int
	CacheMisses    int
	CacheEvictions int
	// BatchInstalls counts InstallFilterBatch calls; QueueWaitMicros is
	// the cumulative time batch requests waited for a validator worker.
	BatchInstalls   int
	QueueWaitMicros float64
}

// counters is the lock-free backing store for Stats (cache counters
// live in the proofCache). The install-side counters are single
// atomics — installs are not the hot path; the dispatch-side packet
// and cycle counters are sharded per dispatch environment (shard.go)
// and summed at scrape time.
type counters struct {
	validations     atomic.Int64
	rejections      atomic.Int64
	validationNanos atomic.Int64
	batchInstalls   atomic.Int64
	queueWaitNanos  atomic.Int64
	shards          []dispatchShard
}

// packets sums the sharded delivery counter.
func (c *counters) packets() int64 {
	var sum int64
	for i := range c.shards {
		sum += c.shards[i].packets.Load()
	}
	return sum
}

// extensionCycles sums the sharded cycle counter.
func (c *counters) extensionCycles() int64 {
	var sum int64
	for i := range c.shards {
		sum += c.shards[i].cycles.Load()
	}
	return sum
}

// installed is one live packet filter. Immutable once published in a
// filterTable snapshot: retrofits (SetBackend, SetProfiling) replace
// the struct rather than mutating it, and the replaced one is retired
// through the epoch domain. The accepts counter is shared with the
// snapshot's persistent per-owner table so accounting survives
// uninstall/reinstall. prof is the cycle-attribution accumulator,
// non-nil only once profiling has been enabled (profile.go). compiled
// is the threaded-code form, non-nil only when the filter was
// installed under (or retrofitted to) BackendCompiled (backend.go).
type installed struct {
	ext      *pcc.Extension
	accepts  *ownerCounter
	prof     *filterProfile
	compiled *machine.Compiled
}

// Kernel is a simulated extensible kernel.
type Kernel struct {
	// mu guards the control plane: filter-table publication (writers
	// serialize their copy-on-write builds), handler/table maps,
	// budget, and negotiation. Dispatch NEVER takes it — deliveries
	// read the table snapshot lock-free. Validation never holds it
	// either.
	mu sync.RWMutex

	filterPolicy   *policy.Policy
	resourcePolicy *policy.Policy
	// Cache keyers memoize the policy-side fingerprints, so keying a
	// binary costs one SHA-256 over its bytes.
	filterKeyer   *pcc.Keyer
	resourceKeyer *pcc.Keyer

	// table is the published installed-filter snapshot (table.go);
	// epochs is the grace-period domain that defers freeing retired
	// snapshots and filters past in-flight deliveries (epoch.go).
	table  atomic.Pointer[filterTable]
	epochs *epochs

	handlers         map[int]*pcc.Extension // pid -> resource-access handler
	tables           map[int]*machine.Region
	budget           CycleBudget
	negotiated       map[string]*policy.Policy
	negotiatedKeyers map[string]*pcc.Keyer

	cache *proofCache
	stats counters
	// envSeq assigns counter shards to dispatch environments
	// round-robin; shardMask is len(stats.shards)-1.
	envSeq    atomic.Uint32
	shardMask uint32

	// events allocates the kernel's correlation EventIDs: one per
	// negotiate, install attempt, handler install, uninstall, config
	// change, packet delivery, and dispatch batch. Spans, audit
	// records, and flight events produced by the same operation all
	// carry the same EventID, which is what /debug/timeline joins on.
	// Tenant-scoped: a Registry seeds each kernel with a disjoint base
	// (SeedEventBase) so IDs identify their tenant.
	events atomic.Uint64
	// tel is the optional telemetry sink (telemetry.go); nil means
	// every instrumentation point is a no-op costing one atomic load.
	tel atomic.Pointer[telem]
	// audit is the optional structured audit sink (audit.go).
	audit atomic.Pointer[auditor]
	// flightRec is the optional dispatch flight recorder: a lock-free
	// ring of the last N anomalies (faults, fuel exhaustion, oversize
	// fallbacks, backend fallbacks, quarantine trips, config changes).
	// nil means anomalies cost one atomic load each.
	flightRec atomic.Pointer[telemetry.FlightRecorder]
	// profiling selects the profiled dispatch path (profile.go).
	profiling atomic.Bool
	// backend is the default execution backend (backend.go), read on
	// install commits; dispatch never consults it — each filter slot
	// carries its own compiled form or not.
	backend atomic.Int32
	// Adversarial-hardening configuration (robust.go): validation
	// resource budgets, admission gate, and producer quarantine. All
	// nil/disabled by default.
	limits  atomic.Pointer[pcc.Limits]
	admit   atomic.Pointer[admitGate]
	quarCfg atomic.Pointer[QuarantineConfig]
	quarMu  sync.Mutex
	quar    map[string]*quarState
	// wal is the optional durability store (store.go in this package;
	// the on-disk format lives in internal/store). When attached,
	// install/uninstall/retrofit commits journal through it before they
	// publish — an acked install is on disk. nil (the default) keeps the
	// kernel purely in-memory.
	wal atomic.Pointer[store.Store]
	// brk is the optional dispatch circuit-breaker supervisor
	// (breaker.go): per-filter fault accounting that demotes a
	// repeatedly faulting compiled filter to the interpreter and
	// re-admits it only after backoff. brkArmed is the hot-path gate:
	// dispatch consults the breaker only while it is nonzero.
	brkCfg   atomic.Pointer[BreakerConfig]
	brkMu    sync.Mutex
	brk      map[string]*breakerState
	brkArmed atomic.Int64
	// statePool recycles packet-delivery machine states so dispatch
	// does not allocate a fresh memory image per packet per filter.
	statePool sync.Pool
}

// New creates a kernel publishing the standard policies, with a proof
// cache of DefaultCacheSize entries.
func New() *Kernel { return NewWithCacheSize(DefaultCacheSize) }

// NewWithCacheSize creates a kernel whose proof cache holds up to size
// validated extensions; size <= 0 disables memoization (every install
// re-validates), which the latency benchmarks use to model an
// all-cold workload.
func NewWithCacheSize(size int) *Kernel {
	k := &Kernel{
		filterPolicy:   policy.PacketFilter(),
		resourcePolicy: policy.ResourceAccess(),
		handlers:       map[int]*pcc.Extension{},
		tables:         map[int]*machine.Region{},
		cache:          newProofCache(size),
		epochs:         newEpochs(),
	}
	k.table.Store(newFilterTable())
	n := numShards()
	k.stats.shards = make([]dispatchShard, n)
	k.shardMask = uint32(n - 1)
	k.filterKeyer = pcc.NewKeyer(k.filterPolicy)
	k.resourceKeyer = pcc.NewKeyer(k.resourcePolicy)
	k.statePool.New = func() any {
		e := newPacketEnv()
		e.shard = k.envSeq.Add(1) & k.shardMask
		return e
	}
	return k
}

// nextEvent allocates the correlation EventID for one kernel
// operation, or 0 when no observer — telemetry recorder, audit sink,
// or flight recorder — is attached, so the unobserved path pays the
// loads it already paid and no shared-counter write. tel is the
// already-loaded telemetry bundle (callers on instrumented paths load
// it first).
func (k *Kernel) nextEvent(tel *telem) uint64 {
	if tel == nil && k.audit.Load() == nil && k.flightRec.Load() == nil {
		return 0
	}
	return k.events.Add(1)
}

// SeedEventBase sets the starting point of the kernel's EventID
// counter. A multi-tenant registry seeds each kernel with a disjoint
// base so an EventID identifies its tenant; call before the kernel
// observes traffic.
func (k *Kernel) SeedEventBase(base uint64) { k.events.Store(base) }

// FilterPolicy returns the published packet-filter policy (Figure 1:
// the consumer "defines and publicizes a safety policy").
func (k *Kernel) FilterPolicy() *policy.Policy { return k.filterPolicy }

// ResourcePolicy returns the published resource-access policy.
func (k *Kernel) ResourcePolicy() *policy.Policy { return k.resourcePolicy }

// CycleBudget is the per-packet worst-case cycle budget the kernel
// enforces at install time (the §2.1 "control over resource usage"
// policy dimension). Zero disables the check.
type CycleBudget int64

// SetCycleBudget configures the per-packet budget for subsequently
// installed filters.
func (k *Kernel) SetCycleBudget(b CycleBudget) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.budget = b
}

// NegotiateFilterPolicy implements the §4 protocol at the kernel
// boundary: a producer proposes a policy; the kernel accepts it —
// and from then on validates binaries naming it — only after proving
// that its own packet-filter guarantees cover the proposal.
func (k *Kernel) NegotiateFilterPolicy(proposed *policy.Policy) error {
	tel := k.tel.Load()
	eid := k.nextEvent(tel)
	span := tel.span(telemetry.StageNegotiate, proposed.Name, eid)
	aud := k.audit.Load()
	k.mu.RLock()
	base := k.filterPolicy
	k.mu.RUnlock()
	if err := pcc.NegotiatePolicy(base, proposed); err != nil {
		aud.negotiate(proposed, eid, err)
		span.End(err)
		return err
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.negotiated == nil {
		k.negotiated = map[string]*policy.Policy{}
		k.negotiatedKeyers = map[string]*pcc.Keyer{}
	}
	k.negotiated[proposed.Name] = proposed
	k.negotiatedKeyers[proposed.Name] = pcc.NewKeyer(proposed)
	aud.negotiate(proposed, eid, nil)
	span.End(nil)
	return nil
}

// InstallFilter validates a PCC binary against the packet-filter
// policy and installs it for the owner. Invalid binaries — and, when a
// cycle budget is configured, binaries whose static worst-case cost
// exceeds it — are rejected and counted. Validation runs without the
// kernel lock (and is skipped entirely on a proof-cache hit); only the
// final commit of the validated extension is serialized.
func (k *Kernel) InstallFilter(owner string, binary []byte) error {
	return k.InstallFilterCtx(context.Background(), owner, binary)
}

// newCacheSlot derives everything an install commit will need from a
// freshly validated extension — today the static worst-case cost
// bound — so the commit section never does per-extension analysis
// under the kernel write lock. Slots are immutable once built. The
// WCET pass runs inside a recover fence: it analyzes untrusted code,
// and a panic there must reject the one binary, not crash the kernel.
func newCacheSlot(key cacheKey, ext *pcc.Extension) *cacheSlot {
	slot := &cacheSlot{key: key, ext: ext}
	if perr := pcc.Fence("wcet", func() error {
		slot.wcet, slot.wcetErr = machine.DEC21064.MaxCost(ext.Prog)
		return nil
	}); perr != nil {
		slot.wcetErr = perr
	}
	return slot
}

// validateFilter is the lock-free validation stage: proof-cache
// lookup, then full PCC validation against the published packet-filter
// policy with fallback to any negotiated policy the binary names. At
// most one cache hit or miss is recorded per install attempt, however
// many candidate policies are probed. With a recorder attached, the
// attempt is traced as a validate span with cacheprobe /
// parse / lfsig / vcgen / lfcheck / wcet children; with an audit log
// attached, the forensic context of the attempt rides along to the
// commit in the returned validationAudit (nil when auditing is off).
func (k *Kernel) validateFilter(ctx context.Context, owner string, binary []byte, eid uint64) (*cacheSlot, *validationAudit, error) {
	k.stats.validations.Add(1)
	tel := k.tel.Load()
	span := tel.span(telemetry.StageValidate, owner, eid)
	va := k.audit.Load().newValidationAudit("filter", owner, binary, eid)
	// An expired context or a live embargo rejects before any byte of
	// the binary is examined — in particular before the cache probe, so
	// a canceled install cannot be served (and committed) from a hit.
	if err := ctx.Err(); err != nil {
		err = fmt.Errorf("kernel: install aborted: %w", err)
		span.End(err)
		return nil, va, err
	}
	if qerr := k.quarantineCheck(owner); qerr != nil {
		span.End(qerr)
		return nil, va, qerr
	}
	type candidate struct {
		pol *policy.Policy
		key cacheKey
	}
	k.mu.RLock()
	cands := make([]candidate, 0, 1+len(k.negotiated))
	cands = append(cands, candidate{k.filterPolicy, k.filterKeyer.Key(binary)})
	for name, p := range k.negotiated {
		cands = append(cands, candidate{p, k.negotiatedKeyers[name].Key(binary)})
	}
	k.mu.RUnlock()
	va.setPolicy(cands[0].pol)

	probeStart := time.Now()
	for _, c := range cands {
		if slot := k.cache.lookup(c.key); slot != nil {
			k.cache.recordHit()
			va.setCacheHit()
			va.setPolicy(c.pol)
			tel.probe(span, probeStart, true)
			span.End(nil)
			return slot, va, nil
		}
	}
	k.cache.recordMiss()
	tel.probe(span, probeStart, false)

	lastErr := fmt.Errorf("kernel: no policy matches")
	for i, c := range cands {
		valStart := time.Now()
		ext, stats, err := pcc.ValidateCtx(ctx, binary, c.pol, k.limits.Load())
		if err != nil {
			if i == 0 {
				lastErr = err // the published policy's verdict leads
			}
			continue
		}
		k.stats.validationNanos.Add(stats.Time.Nanoseconds())
		tel.validationStages(span, owner, valStart, stats)
		tel.certCost(stats, eid)
		va.setPolicy(c.pol)
		va.setStats(stats)
		wcetStart := time.Now()
		slot := newCacheSlot(c.key, ext)
		tel.wcet(span, owner, wcetStart, slot.wcetErr)
		slot, evicted := k.cache.put(slot)
		tel.evicted(evicted)
		k.audit.Load().evict(evicted, eid)
		span.End(nil)
		return slot, va, nil
	}
	span.End(lastErr)
	return nil, va, lastErr
}

// commitFilter is the short serial section of an install: budget
// comparison (the WCET itself was computed lock-free at validation
// time), journal append, and table update. The final verdict —
// including budget rejections — is written to the audit log here, so
// every install attempt produces exactly one install record. Under
// BackendCompiled the threaded-code form is obtained (memoized on the
// slot) before the lock is taken, so compilation — like validation —
// never runs under the kernel write lock, and a filter that somehow
// fails to compile is rejected rather than silently interpreted.
//
// When a store is attached and journal is true, the install is
// journaled inside the commit section BEFORE the table swap: the
// write-ahead discipline. A successful return therefore implies the
// record is on disk (fsynced), and a failed append rejects the install
// — the kernel never acks an install a crash could lose. journal is
// false only on the recovery path, whose records are already in the
// journal. binary is the exact accepted blob; it is what recovery will
// re-validate, so it must be the bytes that were proof-checked, not a
// derived form.
func (k *Kernel) commitFilter(owner string, binary []byte, slot *cacheSlot, va *validationAudit, verr error, be Backend, eid uint64, journal bool) error {
	tel := k.tel.Load()
	if verr != nil {
		k.stats.rejections.Add(1)
		reason := installRejectReason(verr)
		tel.outcome(false)
		tel.reject(reason)
		k.noteRejection(owner, reason, eid)
		err := fmt.Errorf("kernel: filter for %q rejected: %w", owner, verr)
		k.audit.Load().install(va, slot, err)
		return err
	}
	var compiled *machine.Compiled
	if be == BackendCompiled {
		var cerr error
		compiled, cerr = slot.compiledForm()
		if cerr != nil {
			verr = fmt.Errorf("backend compile: %w", cerr)
			k.stats.rejections.Add(1)
			reason := installRejectReason(verr)
			tel.outcome(false)
			tel.reject(reason)
			k.noteRejection(owner, reason, eid)
			err := fmt.Errorf("kernel: filter for %q rejected: %w", owner, verr)
			k.audit.Load().install(va, slot, err)
			return err
		}
	}
	span := tel.span(telemetry.StageCommit, owner, eid)
	err := func() error {
		k.mu.Lock()
		defer k.mu.Unlock()
		if k.budget > 0 {
			if slot.wcetErr != nil {
				return fmt.Errorf("kernel: filter for %q has no static cost bound: %w", owner, slot.wcetErr)
			}
			if slot.wcet > int64(k.budget) {
				// A typed resource-limit error, so the rejection lands in
				// the "limit" reason bucket alongside the validation-time
				// budgets.
				return fmt.Errorf("kernel: filter for %q exceeds the cycle budget: %w", owner,
					&pcc.ResourceLimitError{Axis: "cycle_budget", Actual: slot.wcet, Max: int64(k.budget)})
			}
		}
		// Write-ahead: the journal append (with fsync) happens before
		// the table swap, so the install is durable before it is
		// visible. An append failure rejects the install — the caller
		// never receives an ack for a record the disk does not hold.
		if journal {
			if st := k.wal.Load(); st != nil {
				if _, jerr := st.Append(store.KindInstall, owner, binary); jerr != nil {
					return fmt.Errorf("kernel: filter for %q not journaled: %w",
						owner, &StoreError{Op: "append", Err: jerr})
				}
			}
		}
		// Copy-on-write publication: build the replacement snapshot,
		// swap the pointer, retire the old snapshot (and a replaced
		// filter) past in-flight deliveries. The persistent per-owner
		// accept counter is carried over or minted here.
		t := k.table.Load()
		ctr := t.accepts[owner]
		if ctr == nil {
			ctr = newOwnerCounter(len(k.stats.shards))
		}
		ins := &installed{ext: slot.ext, accepts: ctr, compiled: compiled}
		if k.profiling.Load() {
			ins.prof = newFilterProfile(slot.ext.Prog)
		}
		nt := t.withFilter(owner, ins)
		var retired []*installed
		if i, ok := t.index[owner]; ok {
			retired = append(retired, t.slots[i].f)
		}
		k.publishLocked(nt, retired...)
		tel.setFilters(len(nt.slots))
		if compiled == nil && Backend(k.backend.Load()) == BackendCompiled {
			k.flight(telemetry.FlightBackendFallback, owner, "no compiled form; dispatching interpreted", eid)
		}
		return nil
	}()
	if err != nil {
		k.stats.rejections.Add(1)
		tel.reject(installRejectReason(err))
		k.noteRejection(owner, installRejectReason(err), eid)
	} else {
		k.noteSuccess(owner)
		// A fresh install is a fresh binary: its breaker history, if
		// any, belongs to the replaced filter.
		k.breakerForget(owner)
	}
	tel.outcome(err == nil)
	k.audit.Load().install(va, slot, err)
	span.End(err)
	return err
}

// UninstallFilter removes an owner's filter. The removed filter and
// the superseded snapshot are retired, not freed: an in-flight
// delivery that loaded the old snapshot finishes against it. With a
// store attached the removal is journaled before it is published, same
// write-ahead discipline as installs; a failed append aborts the
// uninstall (the filter stays installed) so the disk never disagrees
// with an acked removal.
func (k *Kernel) UninstallFilter(owner string) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	t := k.table.Load()
	nt, removed := t.withoutFilter(owner)
	if removed == nil {
		return nil
	}
	eid := k.nextEvent(k.tel.Load())
	if st := k.wal.Load(); st != nil {
		if _, jerr := st.Append(store.KindUninstall, owner, nil); jerr != nil {
			serr := &StoreError{Op: "append", Err: jerr}
			k.audit.Load().storeError("uninstall", owner, serr, eid)
			return fmt.Errorf("kernel: uninstall of %q not journaled: %w", owner, serr)
		}
	}
	k.audit.Load().uninstall(owner, eid)
	k.publishLocked(nt, removed)
	k.tel.Load().setFilters(len(nt.slots))
	return nil
}

// Owners lists owners with installed filters, sorted. Lock-free: it
// reads the published snapshot, whose slots are already sorted.
func (k *Kernel) Owners() []string {
	rec := k.epochs.pin(0)
	defer rec.unpin()
	t := k.table.Load()
	out := make([]string, len(t.slots))
	for i := range t.slots {
		out[i] = t.slots[i].owner
	}
	return out
}

// packetBase/scratchBase lay out the per-delivery address space; a
// pooled packet region may grow up to the gap between them
// (maxPooledPacket) without overlapping scratch.
const (
	packetBase      = 0x10000
	scratchBase     = 0x20000
	maxPooledPacket = scratchBase - packetBase
)

// dispatchFuel is the per-filter step budget on the dispatch path. A
// validated filter never gets near it; it is the kernel's last-resort
// bound should validation ever be wrong about termination.
const dispatchFuel = 1 << 20

// packetEnv is a reusable delivery environment: one memory image
// (packet + scratch regions) and one machine state, recycled through
// the kernel's statePool so dispatch allocates nothing per packet.
// dirtyScratch tracks whether the last run could have written the
// scratch region: compiled filters report store-freedom statically
// (machine.Compiled.WritesMemory), and a store-free run lets the next
// reset skip the scratch wipe.
type packetEnv struct {
	state        machine.State
	pkt          *machine.Region
	tail         *machine.Region
	scratch      *machine.Region
	dirtyScratch bool
	// tailPending reports that the mapped packet's unaligned final
	// word has not been copied into its tail word yet. The copy is
	// deferred until a filter actually touches the tail (see
	// materializeTail): filters read packet headers, so eagerly
	// copying the last few bytes would drag the packet's final cache
	// line in from memory on every delivery for bytes almost never
	// read.
	tailPending bool
	// cur is the batch index of the packet setPacket mapped last, -1
	// for none: back-to-back runs over one packet — every run of a
	// one-packet batch — map it once.
	cur int
	// shard is the environment's assigned slot in the kernel's sharded
	// dispatch counters (shard.go), fixed at creation. sync.Pool's
	// per-P caching gives the assignment natural processor affinity.
	shard uint32
	// Pooled per-batch scratch for dispatch (batch.go), so a batch
	// allocates only its result. bits backs acc, one row of accept bits
	// (⌈len(pkts)/64⌉ words) per filter slot, and tailReady, the bits
	// of the packets whose tail word is filled. tails holds each
	// packet's zero-padded unaligned final word, eight bytes per
	// packet; runs each slot's batch accounting; hot lists the slots
	// that accepted anything, in slot order.
	bits      []uint64
	tailReady []uint64
	tails     []byte
	runs      []slotRun
	hot       []hotSlot
}

func newPacketEnv() *packetEnv {
	mem := machine.NewMemory()
	// The packet region aliases the caller's bytes during a run; the
	// tail region aliases the packet's pooled tail word once it is
	// filled. Both are empty (matching nothing) in between; an empty
	// region never overlaps anything.
	pkt := machine.NewRegion("packet", packetBase, 0, false)
	tail := machine.NewRegion("packet-tail", packetBase, 0, false)
	scratch := machine.NewRegion("scratch", scratchBase, policy.ScratchLen, true)
	mem.MustAddRegion(pkt)
	mem.MustAddRegion(tail)
	mem.MustAddRegion(scratch)
	return &packetEnv{state: machine.State{Mem: mem}, pkt: pkt, tail: tail, scratch: scratch, cur: -1}
}

// prepare sizes and clears the pooled batch scratch for n packets and
// the given number of filter slots, returning the accept bits, the
// words per slot row, and the per-slot accounting.
func (e *packetEnv) prepare(n, slots int) (acc []uint64, words int, runs []slotRun) {
	words = (n + dispatchTile - 1) / dispatchTile
	if need := words * (slots + 1); cap(e.bits) < need {
		e.bits = make([]uint64, need)
	}
	bits := e.bits[:words*(slots+1)]
	clear(bits)
	acc, e.tailReady = bits[:words*slots], bits[words*slots:]
	if cap(e.tails) < 8*n {
		e.tails = make([]byte, 8*n)
	}
	e.tails = e.tails[:8*n]
	if cap(e.runs) < slots {
		e.runs = make([]slotRun, slots)
		e.hot = make([]hotSlot, 0, slots)
	}
	runs = e.runs[:slots] // zero: each batch's flush re-zeroes what it used
	e.hot = e.hot[:0]
	return acc, words, runs
}

// releasePacket drops any zero-copy alias so a pooled environment
// never pins a caller's packet buffer while idle in the pool.
func (e *packetEnv) releasePacket() {
	e.pkt.AliasBytes(nil)
	e.tail.AliasBytes(nil)
	e.tailPending = false
	e.cur = -1
}

// setPacket maps packet pi of the batch for a run (a no-op when pi is
// already mapped), with no copy: the packet region aliases the
// caller's buffer up to its last whole word, and an unaligned final
// word (at most 7 bytes plus zero padding) comes from the packet's
// pooled tail word once that is filled; until then the tail region
// stays empty and tailPending marks the pending copy. The visible
// address space is that of a zero-padded copy of the packet:
// same words at the same addresses, unmapped beyond. The caller's
// buffer must stay unmodified for the duration of the run; the packet
// and tail regions are read-only, so validated filters cannot write
// through the alias.
func (e *packetEnv) setPacket(pi int, data []byte) {
	if pi == e.cur {
		return
	}
	e.cur = pi
	floor := len(data) &^ 7
	e.pkt.AliasBytes(data[:floor])
	e.tail.Base = uint64(packetBase) + uint64(floor)
	e.tailPending = false
	switch {
	case floor == len(data):
		e.tail.Clear()
	case e.tailReady[pi>>6]&(1<<(pi&63)) != 0:
		e.tail.AliasBytes(e.tails[8*pi : 8*pi+8 : 8*pi+8])
	default:
		e.tail.Clear()
		e.tailPending = true
	}
}

// fillTail copies packet pi's unaligned final word, zero-padded, into
// its pooled tail word and marks it ready: every later run over the
// packet maps it at no further cost.
func (e *packetEnv) fillTail(pi int, data []byte) {
	// At most 7 bytes plus zero padding into one word: an explicit byte
	// loop beats copy's memmove at this size.
	dst := e.tails[8*pi : 8*pi+8]
	tb := data[len(data)&^7:]
	i := 0
	for ; i < len(tb); i++ {
		dst[i] = tb[i]
	}
	for ; i < len(dst); i++ {
		dst[i] = 0
	}
	e.tailReady[pi>>6] |= 1 << (pi & 63)
}

// materializeTail fills the pending tail word of packet pi (whose bytes
// are data) and maps it, making the address space that of a zero-padded
// copy. Called when a filter faults on the tail word (see tailFault);
// after it runs, the retried filter — and every later filter over the
// same packet — sees the mapped tail.
func (e *packetEnv) materializeTail(pi int, data []byte) {
	e.fillTail(pi, data)
	e.tail.AliasBytes(e.tails[8*pi : 8*pi+8 : 8*pi+8])
	e.tailPending = false
}

// tailFault reports whether err is a fault that only happened because
// the tail word has not been materialized yet: an unmapped-address
// fault inside the tail region's one-word window while a copy is
// pending. Every other fault — unaligned access anywhere, any access
// past the padded length, a write that would hit the read-only tail —
// produces the same error the eager-copy layout would have.
func (e *packetEnv) tailFault(err error) bool {
	if !e.tailPending {
		return false
	}
	var mf *machine.MemFault
	if !errors.As(err, &mf) {
		return false
	}
	return mf.Kind == machine.FaultUnmapped && mf.Addr >= e.tail.Base && mf.Addr < e.tail.Base+8
}

// reset re-establishes the packet-filter precondition between runs:
// zeroed registers, packet pointer/length in the convention registers.
// Scratch hygiene is the caller's half of the contract: the dispatch
// loop checks dirtyScratch and calls wipeScratch before each reset, so
// each run observes the same fresh state a dedicated allocation would
// have given it (scratch contents must not leak between runs).
// Keeping that branch out of reset leaves it inside the inlining
// budget of the dispatch loop. The packet region itself is read-only
// to the extension; setPacket maps it, without a copy, before each run.
func (e *packetEnv) reset(pktLen int) {
	e.state.R = [alpha.NumRegs]uint64{
		policy.RegPacket:  packetBase,
		policy.RegLen:     uint64(pktLen),
		policy.RegScratch: scratchBase,
	}
	e.state.PC = 0
}

// presetRegs is the register set reset establishes with non-stale
// values: the zeroed return register and the three convention
// registers. A filter whose LiveInRegs set is inside presetRegs
// provably cannot observe any other register, so dispatch may use
// resetLite for it.
const presetRegs = 1<<0 | 1<<policy.RegPacket | 1<<policy.RegLen | 1<<policy.RegScratch

// resetLite is reset for filters proven (by install-time liveness
// analysis, machine.Compiled.LiveInRegs) to read only the preset
// registers before writing anything else: it skips the full register
// wipe, writing just the four presets. Observable behavior is
// identical to reset for such filters — the skipped registers' stale
// values are provably dead. Like reset, it relies on the caller for
// the dirty-scratch wipe.
func (e *packetEnv) resetLite(pktLen int) {
	e.state.R[0] = 0
	e.state.R[policy.RegPacket] = packetBase
	e.state.R[policy.RegLen] = uint64(pktLen)
	e.state.R[policy.RegScratch] = scratchBase
	e.state.PC = 0
}

// wipeScratch zeroes the scratch region, out of line so the common
// clean-scratch reset stays small enough to inline into the dispatch
// loop.
func (e *packetEnv) wipeScratch() {
	e.scratch.SetBytes(nil) // zero the whole scratch region
	e.dirtyScratch = false
}

// DeliverPacket runs every installed filter over the packet (with no
// run-time checks — they are validated) and returns the owners that
// accepted it, sorted. It is the dispatch loop of DeliverPackets
// (batch.go) run over a one-packet batch, so it shares that loop's
// contract — no lock, one snapshot, zero-copy, no allocation beyond
// the accept list — with its own telemetry stage (StageDispatch) and
// breaker probation advancing once per delivery.
func (k *Kernel) DeliverPacket(pkt pktgen.Packet) ([]string, error) {
	pkts := [1][]byte{pkt.Data}
	var row [1][]string
	if err := k.dispatch(pkts[:], row[:], telemetry.StageDispatch); err != nil {
		return nil, err
	}
	return row[0], nil
}

// packetState builds a freshly allocated precondition-satisfying
// machine state for one delivery: the fallback for packets too large
// for the pooled layout, and the baseline the state-pool benchmark
// (BenchmarkDeliverPacketState) measures against.
func (k *Kernel) packetState(pkt pktgen.Packet) *machine.State {
	mem := machine.NewMemory()
	pr := machine.NewRegion("packet", packetBase, len(pkt.Data), false)
	pr.SetBytes(pkt.Data)
	mem.MustAddRegion(pr)
	// An oversized packet spills past the pooled layout's scratch base;
	// relocate scratch above the packet end. Filters reach scratch only
	// through R[RegScratch], so its absolute base is free to move.
	sb := uint64(scratchBase)
	if end := uint64(packetBase) + uint64(len(pkt.Data)); end > sb {
		sb = (end + 7) &^ 7
	}
	mem.MustAddRegion(machine.NewRegion("scratch", sb, policy.ScratchLen, true))
	s := &machine.State{Mem: mem}
	s.R[policy.RegPacket] = packetBase
	s.R[policy.RegLen] = uint64(len(pkt.Data))
	s.R[policy.RegScratch] = sb
	return s
}

// Accepts returns the per-owner accept counters (including owners
// whose filter has since been uninstalled). Lock-free: it reads the
// published snapshot's persistent counter table and sums each
// counter's shards; every count is attributed to exactly one shard,
// so nothing is lost across concurrent deliveries or table swaps.
func (k *Kernel) Accepts() map[string]int {
	rec := k.epochs.pin(0)
	defer rec.unpin()
	t := k.table.Load()
	out := make(map[string]int, len(t.accepts))
	for o, c := range t.accepts {
		out[o] = int(c.total())
	}
	return out
}

// CreateTable creates the §2 {tag, data} entry for a process.
func (k *Kernel) CreateTable(pid int, tag, data uint64) {
	k.mu.Lock()
	defer k.mu.Unlock()
	base := uint64(0x40000 + pid*16)
	r := machine.NewRegion(fmt.Sprintf("table-%d", pid), base, 16, true)
	r.SetWord(0, tag)
	r.SetWord(8, data)
	k.tables[pid] = r
}

// InstallHandler validates and installs a resource-access handler for
// a process. Like InstallFilter, validation runs lock-free, is
// memoized by the proof cache, and is traced when a recorder is
// attached.
func (k *Kernel) InstallHandler(pid int, binary []byte) error {
	k.stats.validations.Add(1)
	tel := k.tel.Load()
	eid := k.nextEvent(tel)
	var owner string
	if tel != nil || k.audit.Load() != nil {
		owner = fmt.Sprintf("pid-%d", pid)
	}
	span := tel.span(telemetry.StageValidate, owner, eid)
	va := k.audit.Load().newValidationAudit("handler", owner, binary, eid)
	va.setPolicy(k.resourcePolicy)
	key := k.resourceKeyer.Key(binary)
	probeStart := time.Now()
	slot := k.cache.lookup(key)
	if slot != nil {
		k.cache.recordHit()
		va.setCacheHit()
		tel.probe(span, probeStart, true)
	} else {
		k.cache.recordMiss()
		tel.probe(span, probeStart, false)
		valStart := time.Now()
		ext, stats, err := pcc.ValidateCtx(context.Background(), binary, k.resourcePolicy, k.limits.Load())
		if err != nil {
			k.stats.rejections.Add(1)
			tel.outcome(false)
			tel.reject(pcc.RejectReason(err))
			span.End(err)
			werr := fmt.Errorf("kernel: handler for pid %d rejected: %w", pid, err)
			k.audit.Load().install(va, nil, werr)
			return werr
		}
		k.stats.validationNanos.Add(stats.Time.Nanoseconds())
		tel.validationStages(span, owner, valStart, stats)
		tel.certCost(stats, eid)
		va.setStats(stats)
		wcetStart := time.Now()
		fresh := newCacheSlot(key, ext)
		tel.wcet(span, owner, wcetStart, fresh.wcetErr)
		var evicted int64
		slot, evicted = k.cache.put(fresh)
		tel.evicted(evicted)
		k.audit.Load().evict(evicted, eid)
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	k.handlers[pid] = slot.ext
	tel.outcome(true)
	k.audit.Load().install(va, slot, nil)
	span.End(nil)
	return nil
}

// InvokeHandler runs a process's installed handler on its own table
// entry, per the §2 calling convention (entry address in r0). It holds
// the write lock: handlers mutate their table entry in place.
func (k *Kernel) InvokeHandler(pid int) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	ext, ok := k.handlers[pid]
	if !ok {
		return fmt.Errorf("kernel: pid %d has no handler", pid)
	}
	table, ok := k.tables[pid]
	if !ok {
		return fmt.Errorf("kernel: pid %d has no table entry", pid)
	}
	mem := machine.NewMemory()
	mem.MustAddRegion(table)
	s := &machine.State{Mem: mem}
	s.R[0] = table.Base
	res, err := machine.Interp(ext.Prog, s, machine.Unchecked, &machine.DEC21064, 10000)
	if err != nil {
		return fmt.Errorf("kernel: validated handler for pid %d faulted: %w", pid, err)
	}
	// Handlers run under the write lock (cold path); shard 0 is fine.
	k.stats.shards[0].cycles.Add(res.Cycles)
	return nil
}

// Table returns a process's {tag, data} entry.
func (k *Kernel) Table(pid int) (tag, data uint64, ok bool) {
	k.mu.RLock()
	defer k.mu.RUnlock()
	r, found := k.tables[pid]
	if !found {
		return 0, 0, false
	}
	return r.Word(0), r.Word(8), true
}

// Stats returns a snapshot of the kernel accounting, aggregated on
// scrape: the hot dispatch counters (Packets, ExtensionCycles, and
// the per-owner accepts behind Accepts) are sharded per dispatch
// environment and summed here, so a delivery's increment costs one
// uncontended atomic add and a scrape costs one pass over the shards.
// The aggregation contract: every increment lands in exactly one
// shard, so no increment is ever lost — in particular not across a
// filter-table swap, since the shards live outside the swapped
// snapshot — and each counter is monotone across successive calls
// (each shard is non-decreasing, so the sum is). The snapshot as a
// whole still takes no lock: while installs or deliveries are in
// flight, counters that move together at rest may be momentarily
// inconsistent (e.g. a Validation counted whose hit, miss, or
// rejection is not yet recorded; a Packet counted whose cycles are
// not). Callers wanting exact cross-counter invariants must quiesce
// the kernel first, as the tests do; monitoring readers should treat
// the snapshot as approximate but never regressing.
func (k *Kernel) Stats() Stats {
	hits, misses, evictions := k.cache.counters()
	return Stats{
		Validations:      int(k.stats.validations.Load()),
		Rejections:       int(k.stats.rejections.Load()),
		ValidationMicros: float64(k.stats.validationNanos.Load()) / float64(time.Microsecond),
		Packets:          int(k.stats.packets()),
		ExtensionCycles:  k.stats.extensionCycles(),
		CacheHits:        int(hits),
		CacheMisses:      int(misses),
		CacheEvictions:   int(evictions),
		BatchInstalls:    int(k.stats.batchInstalls.Load()),
		QueueWaitMicros:  float64(k.stats.queueWaitNanos.Load()) / float64(time.Microsecond),
	}
}
