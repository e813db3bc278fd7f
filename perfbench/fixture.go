package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/filters"
	"repro/internal/kernel"
	"repro/internal/pktgen"
	"repro/internal/policy"
	"repro/internal/store"
)

// sizes fixes every input size of a run. full is the benchmark; the
// self-check runs a reduced copy.
type sizes struct {
	PoolPerKind    int // certified variants per paper filter (pool = 4x)
	PreloadPerKind int // variants per kind the churn table is preloaded from
	PreloadLive    int // live filters in the churn table before the first op
	JournalPerKind int // variants per kind the recovery journal draws from
	JournalRecords int // records in the recovery journal
	Batches        int // distinct 64-packet batches in the dispatch trace
	Procs          int // measuring processes per untraced run, each with its own set-up

	// Companion phases: every run also measures the two workloads it is
	// not named after, at these fixed sizes per round, so every end-to-end
	// metric is reported on every workload. ChurnRound is the churn
	// round's block of operations whether churn is the companion or the
	// named workload; at CompactEvery/2 (each operation appends two
	// records) every block holds exactly one compaction.
	CompanionBatches  int
	ChurnRound        int
	CompanionRestarts int

	Ledger ledgerSizes
}

var full = sizes{
	PoolPerKind: 32, PreloadPerKind: 8, PreloadLive: 1000,
	JournalPerKind: 16, JournalRecords: 1024, Batches: 512, Procs: 3,
	CompanionBatches: 1200, ChurnRound: churnCompactEvery / 2, CompanionRestarts: 1,
	Ledger: ledgerSizes{Rounds: 5, Batches: 200, Singles: 2000, Validations: 3,
		Appends: 1000, HitProbes: 200, Large: 4000, Mid: 1000},
}

// batchSize is the packets per DeliverPackets call, near the serving
// monitor's 40-packet pump tick.
const batchSize = 64

// churnCompactEvery is the compaction threshold the serving monitor
// attaches its store with.
const churnCompactEvery = 512

// serveQuarantine is the serving monitor's producer-quarantine posture.
var serveQuarantine = kernel.QuarantineConfig{Threshold: 3, Base: time.Second, Max: 5 * time.Minute}

// servePosture configures a registry tenant the way the serving monitor
// boots one: audit records teed through the tenant's ring into a JSON
// handler (here discarding its output), compiled backend, profiling and
// quarantine. The registry already attached the windowed recorder and
// the flight recorder.
func servePosture(tn *kernel.Tenant) error {
	tn.Kernel.SetAuditLog(slog.New(tn.Audit.Handler(slog.NewJSONHandler(io.Discard, nil))).With("tenant", tn.Name))
	if err := tn.Kernel.SetBackend(kernel.BackendCompiled); err != nil {
		return err
	}
	tn.Kernel.SetProfiling(true)
	tn.Kernel.SetQuarantine(serveQuarantine)
	return nil
}

// fixture is everything one run measures against, built from the seed.
type fixture struct {
	dir  string
	pol  *policy.Policy
	pool *pool
	reg  *kernel.Registry

	// serve_dispatch: the serving tenant with the four paper filters,
	// the packet batches, and the oracle's verdict row per packet.
	serve    *kernel.Tenant
	batches  [][][]byte
	expected [][][]string

	// durable_churn: a serving tenant whose store was preloaded with
	// PreloadLive filters, the FIFO of live owners, and the pool entry
	// each live owner was installed with.
	churn       *kernel.Tenant
	churnDir    string
	churnLive   []string
	churnBin    map[string]int // live owner -> pool entry
	churnOps    int            // churn operations issued so far
	cacheHits   int            // proof-cache hits during churn
	cacheProbes int            // proof-cache probes during churn
	batchNext   int            // next dispatch batch

	// cold_recover: the journal directory, its folded live set
	// (owner -> pool entry), and the probe batch's expected verdicts.
	recoverDir   string
	recoverOwner []string
	probe        [][]byte
	probeWant    [][]string
}

// buildFixture runs the whole set-up in dir.
func buildFixture(seed uint64, sz sizes, dir string) (*fixture, error) {
	fx := &fixture{dir: dir, pol: policy.PacketFilter(), reg: kernel.NewRegistry()}
	var err error
	if fx.pool, err = buildPool(seed, sz.PoolPerKind, fx.pol); err != nil {
		return nil, err
	}
	if err := fx.buildServe(seed, sz); err != nil {
		return nil, fmt.Errorf("serve set-up: %w", err)
	}
	if err := fx.buildChurn(seed, sz); err != nil {
		return nil, fmt.Errorf("churn set-up: %w", err)
	}
	if err := fx.buildRecover(seed, sz); err != nil {
		return nil, fmt.Errorf("recover set-up: %w", err)
	}
	return fx, nil
}

// close releases the fixture's stores and files.
func (fx *fixture) close() {
	for _, tn := range fx.reg.Tenants() {
		tn.CloseStore()
		fx.reg.Remove(tn.Name)
	}
	os.RemoveAll(fx.dir)
}

func (fx *fixture) buildServe(seed uint64, sz sizes) error {
	tn, err := fx.reg.Create("serve")
	if err != nil {
		return err
	}
	if err := servePosture(tn); err != nil {
		return err
	}
	var reqs []kernel.InstallRequest
	for _, f := range filters.All {
		reqs = append(reqs, kernel.InstallRequest{Owner: f.String(), Binary: fx.pool.paper(f).Binary})
	}
	for i, err := range tn.Kernel.InstallFilterBatch(reqs) {
		if err != nil {
			return fmt.Errorf("install %s: %w", reqs[i].Owner, err)
		}
	}
	fx.serve = tn

	pkts := pktgen.Generate(sz.Batches*batchSize, pktgen.Config{Seed: seed})
	fx.batches = make([][][]byte, sz.Batches)
	fx.expected = make([][][]string, sz.Batches)
	for b := range fx.batches {
		for _, p := range pkts[b*batchSize : (b+1)*batchSize] {
			var row []string
			for _, f := range filters.All {
				want := filters.Reference(f, p.Data)
				// The parametric oracle must agree with the paper's own
				// reference on the paper constants.
				if fx.pool.paper(f).M.accepts(p.Data) != want {
					return fmt.Errorf("oracle disagrees with filters.Reference on %v", f)
				}
				if want {
					row = append(row, f.String())
				}
			}
			fx.batches[b] = append(fx.batches[b], p.Data)
			fx.expected[b] = append(fx.expected[b], row)
		}
	}
	return nil
}

// writeJournal appends records to a fresh store in dir without a sync
// per record, then syncs the journal once, so the first measured fsync
// does not also write back the whole set-up journal.
func writeJournal(dir string, recs []store.Record) error {
	s, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		return err
	}
	for _, r := range recs {
		if _, err := s.Append(r.Kind, r.Owner, r.Binary); err != nil {
			s.Close()
			return err
		}
	}
	if err := s.Close(); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(dir, store.JournalName), os.O_RDWR, 0)
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// kindVariant returns the pool index of the given kind's variant v.
func kindVariant(kind, v int) int { return v*4 + kind }

// buildChurn brings up the churn tenant the way the serving monitor boots
// with -store: it writes a journal of PreloadLive installs, drawn from the
// first PreloadPerKind variants of each kind, into a new store directory
// and recovers it, leaving the store attached with the monitor's
// compaction threshold. The store is attached without fsync: on a shared
// host the disk's fsync stalls come and go from one second to the next
// and swamp the commit, journal and compaction work the churn phase
// measures. With fsync, 6 to 56 of a round's 512 install and uninstall
// calls took over 2 ms, against 12 to 17 without, and churn_ops_per_s
// spread 0.15 to 0.33 (interquartile range over median) across ten runs
// of the same code, against 0.08 without. The fsync itself is timed on
// its own, as store.append_us in the traced run.
func (fx *fixture) buildChurn(seed uint64, sz sizes) error {
	r := newRNG(seed, 2)
	preload := make([]store.Record, sz.PreloadLive)
	fx.churnBin = map[string]int{}
	for i := range preload {
		idx := kindVariant(i%4, r.intn(sz.PreloadPerKind))
		owner := fmt.Sprintf("p%06d", i)
		preload[i] = store.Record{Kind: store.KindInstall, Owner: owner, Binary: fx.pool.Entries[idx].Binary}
		fx.churnLive = append(fx.churnLive, owner)
		fx.churnBin[owner] = idx
	}
	fx.churnDir = filepath.Join(fx.dir, "churn")
	if err := writeJournal(fx.churnDir, preload); err != nil {
		return err
	}
	tn, err := fx.reg.Create("churn")
	if err != nil {
		return err
	}
	if err := servePosture(tn); err != nil {
		return err
	}
	rep, err := tn.AttachStore(context.Background(), fx.churnDir, store.Options{CompactEvery: churnCompactEvery, NoSync: true})
	if err != nil {
		return err
	}
	if rep.Restored != len(preload) || len(rep.Skipped) != 0 {
		return fmt.Errorf("preload restored %d of %d (%d skipped)", rep.Restored, len(preload), len(rep.Skipped))
	}
	fx.churn = tn
	return nil
}

func (fx *fixture) buildRecover(seed uint64, sz sizes) error {
	r := newRNG(seed, 3)
	fx.recoverDir = filepath.Join(fx.dir, "recover")
	live := map[string]int{}
	var owners []string // live owners in install order, for seeded picks
	pick := func() string {
		for {
			o := owners[r.intn(len(owners))]
			if _, ok := live[o]; ok {
				return o
			}
		}
	}
	recs := make([]store.Record, 0, sz.JournalRecords)
	fresh := 0
	for i := 0; i < sz.JournalRecords; i++ {
		idx := kindVariant(i%4, r.intn(sz.JournalPerKind))
		switch {
		case i%8 == 7 && len(live) > 0:
			// Uninstall: replay must fold it away.
			o := pick()
			delete(live, o)
			recs = append(recs, store.Record{Kind: store.KindUninstall, Owner: o})
		case i%8 == 6 && len(live) > 0:
			// Reinstall under a live owner: the last install wins.
			o := pick()
			live[o] = idx
			recs = append(recs, store.Record{Kind: store.KindInstall, Owner: o, Binary: fx.pool.Entries[idx].Binary})
		default:
			o := fmt.Sprintf("r%06d", fresh)
			fresh++
			owners = append(owners, o)
			live[o] = idx
			recs = append(recs, store.Record{Kind: store.KindInstall, Owner: o, Binary: fx.pool.Entries[idx].Binary})
		}
	}
	if err := writeJournal(fx.recoverDir, recs); err != nil {
		return err
	}
	for o := range live {
		fx.recoverOwner = append(fx.recoverOwner, o)
	}
	sort.Strings(fx.recoverOwner)
	// The probe is one trace batch; its expected rows come from the
	// parametric oracle over the folded live set, in owner order.
	fx.probe = fx.batches[len(fx.batches)-1]
	for _, p := range fx.probe {
		var row []string
		for _, o := range fx.recoverOwner {
			if fx.pool.Entries[live[o]].M.accepts(p) {
				row = append(row, o)
			}
		}
		fx.probeWant = append(fx.probeWant, row)
	}
	return nil
}

// sameRows compares a dispatch result with the oracle's rows.
func sameRows(got, want [][]string) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return false
		}
		for j := range got[i] {
			if got[i][j] != want[i][j] {
				return false
			}
		}
	}
	return true
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
