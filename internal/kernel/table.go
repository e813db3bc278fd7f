// The immutable filter-table snapshot. The kernel's installed-filter
// set is published as a filterTable behind an atomic.Pointer: readers
// load it once and iterate with no lock; writers — install commits,
// uninstalls, backend and profiling retrofits — build a modified copy
// under the writer mutex, store the new pointer, and retire the old
// snapshot through the epoch domain (epoch.go). Everything reachable
// from a published table is immutable, with two deliberate
// exceptions: the sharded counters (written with atomic adds) and the
// filterProfile accumulators (atomic merges).
package kernel

import (
	"sort"

	"repro/internal/machine"
)

// tableSlot is one installed filter in a snapshot, pre-sorted by
// owner so both dispatch paths emit accept lists in sorted order
// without a per-call sort. c hoists the filter's compiled form (nil
// when absent) and lite its liveness verdict out of the per-(packet,
// filter) loop.
type tableSlot struct {
	owner string
	f     *installed
	c     *machine.Compiled
	// lite: install-time liveness proved the filter reads only the
	// preset registers, so the cheap between-runs resetLite suffices.
	lite bool
}

// filterTable is one immutable snapshot of the installed-filter set.
type filterTable struct {
	// gen increments on every publication; deliveries can use it to
	// tell whether two loads saw the same snapshot.
	gen uint64
	// slots, sorted by owner (find looks an owner up by binary
	// search).
	slots []tableSlot
	// accepts carries the persistent per-owner accept counters —
	// including owners whose filter was uninstalled — from snapshot to
	// snapshot, so Accepts stays lock-free too.
	accepts map[string]*ownerCounter
}

func newFilterTable() *filterTable {
	return &filterTable{
		gen:     1,
		accepts: map[string]*ownerCounter{},
	}
}

// makeSlot derives the dispatch-ready slot for an installed filter.
func makeSlot(owner string, f *installed) tableSlot {
	c := f.compiled
	return tableSlot{
		owner: owner,
		f:     f,
		c:     c,
		lite:  c != nil && c.LiveInRegs()&^presetRegs == 0,
	}
}

// find returns the position of owner's slot, or the position it
// would be inserted at and false.
func (t *filterTable) find(owner string) (int, bool) {
	i := sort.Search(len(t.slots), func(i int) bool { return t.slots[i].owner >= owner })
	return i, i < len(t.slots) && t.slots[i].owner == owner
}

// clone copies the snapshot's structure (slots, accepts map); the
// installed filters themselves are shared with the original.
func (t *filterTable) clone() *filterTable {
	nt := &filterTable{
		gen:     t.gen + 1,
		slots:   append([]tableSlot(nil), t.slots...),
		accepts: make(map[string]*ownerCounter, len(t.accepts)+1),
	}
	for o, c := range t.accepts {
		nt.accepts[o] = c
	}
	return nt
}

// withFilter returns a copy of the snapshot with owner's filter set
// (replacing any existing one), keeping slots sorted. f.accepts must
// already be wired to the owner's persistent counter; the copy's
// accepts map is updated to match.
func (t *filterTable) withFilter(owner string, f *installed) *filterTable {
	nt := t.clone()
	nt.accepts[owner] = f.accepts
	sl := makeSlot(owner, f)
	pos, ok := nt.find(owner)
	if ok {
		nt.slots[pos] = sl
		return nt
	}
	nt.slots = append(nt.slots, tableSlot{})
	copy(nt.slots[pos+1:], nt.slots[pos:])
	nt.slots[pos] = sl
	return nt
}

// withoutFilter returns a copy of the snapshot with owner's filter
// removed (the persistent accept counter stays). The removed filter,
// if any, is returned for retirement.
func (t *filterTable) withoutFilter(owner string) (*filterTable, *installed) {
	i, ok := t.find(owner)
	if !ok {
		return t, nil
	}
	removed := t.slots[i].f
	nt := t.clone()
	nt.slots = append(nt.slots[:i], nt.slots[i+1:]...)
	return nt, removed
}

// mapped returns a copy of the snapshot with every installed filter
// passed through xf; xf returns its argument unchanged to keep a
// filter, or a replacement (sharing the persistent counter). The
// replaced originals are returned for retirement. When xf changes
// nothing, the original snapshot is returned with no copy.
func (t *filterTable) mapped(xf func(owner string, f *installed) *installed) (*filterTable, []*installed) {
	var nt *filterTable
	var replaced []*installed
	for i := range t.slots {
		owner, f := t.slots[i].owner, t.slots[i].f
		nf := xf(owner, f)
		if nf == f {
			continue
		}
		if nt == nil {
			nt = t.clone()
		}
		nt.slots[i] = makeSlot(owner, nf)
		replaced = append(replaced, f)
	}
	if nt == nil {
		return t, nil
	}
	return nt, replaced
}

// publishLocked stores a new snapshot and retires the old one plus any
// filters the caller unpublished. Caller holds k.mu. Retirement
// poisons the retired objects (see epoch.go): plain nil writes over
// the fields dispatch reads, so a grace-period bug is a -race report,
// not a silent wrong verdict.
func (k *Kernel) publishLocked(nt *filterTable, retired ...*installed) {
	ot := k.table.Load()
	k.table.Store(nt)
	frees := make([]func(), 0, 1+len(retired))
	frees = append(frees, func() {
		for i := range ot.slots {
			ot.slots[i] = tableSlot{}
		}
		ot.accepts = nil
	})
	for _, f := range retired {
		f := f
		frees = append(frees, func() {
			f.ext = nil
			f.prof = nil
			f.compiled = nil
		})
	}
	k.epochs.retire(frees...)
}

// Quiesce blocks until every snapshot and filter retired by prior
// installs, uninstalls, or retrofits has been reclaimed — i.e. no
// in-flight delivery still references them. It is the fence callers
// use before asserting exact cross-counter invariants; routine
// operation never needs it (reclamation piggybacks on writers).
func (k *Kernel) Quiesce() { k.epochs.drain() }
