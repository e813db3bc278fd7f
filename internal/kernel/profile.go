// Per-filter cycle profiling. With profiling enabled, every delivery
// attributes cycles per PC into the filter's shared accumulator —
// race-free under concurrent delivery because the merge is atomic and
// the attribution itself happens in pooled per-delivery scratch.
//
// Both backends profile natively. The interpreter path runs the
// profiled instantiation (machine.InterpProfiled) into a pooled
// machine.Profile. The compiled path keeps dispatching threaded code:
// machine.Compiled.RunProfiled counts basic-block completions into a
// pooled machine.BlockProfile (two plain adds per completed block, not
// per instruction) and the per-PC expansion is deferred to the merge,
// so profiling the compiled backend costs a few percent, not a fall
// back to interpretation. With profiling off, dispatch takes the exact
// pre-profiler path (one extra atomic.Bool load per delivery), keeping
// the nil-recorder DeliverPacket at zero allocations per packet.
package kernel

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/alpha"
	"repro/internal/machine"
	"repro/internal/pprofenc"
)

// filterProfile is the shared accumulator for one installed filter:
// per-PC cycles and visits as atomics (merged into by concurrent
// deliveries), plus a pool of scratch machine.Profiles sized to the
// filter's program.
type filterProfile struct {
	prog   []alpha.Instr
	cycles []atomic.Int64
	visits []atomic.Int64
	runs   atomic.Int64
	// scratch pools per-delivery machine.Profiles (interpreter path);
	// blockScratch pools machine.BlockProfiles (compiled path). A
	// pooled BlockProfile is bound to one *machine.Compiled, so users
	// validate with BlockProfile.For and rebuild when the filter was
	// retrofitted to a different compiled form.
	scratch      sync.Pool
	blockScratch sync.Pool
}

func newFilterProfile(prog []alpha.Instr) *filterProfile {
	fp := &filterProfile{
		prog:   prog,
		cycles: make([]atomic.Int64, len(prog)),
		visits: make([]atomic.Int64, len(prog)),
	}
	fp.scratch.New = func() any { return machine.NewProfile(len(prog)) }
	return fp
}

// run executes prog on state through the profiled interpreter and
// folds the attribution into the accumulator.
func (fp *filterProfile) run(state *machine.State, fuel int) (machine.Result, error) {
	p := fp.scratch.Get().(*machine.Profile)
	res, err := machine.InterpProfiled(fp.prog, state, machine.Unchecked, &machine.DEC21064, fuel, p)
	fp.merge(p, 1)
	p.Reset()
	fp.scratch.Put(p)
	return res, err
}

// merge folds a scratch profile's nonzero entries into the atomic
// accumulator and counts runs completed runs.
func (fp *filterProfile) merge(p *machine.Profile, runs int64) {
	for i := range p.Cycles {
		if c := p.Cycles[i]; c != 0 {
			fp.cycles[i].Add(c)
		}
		if v := p.Visits[i]; v != 0 {
			fp.visits[i].Add(v)
		}
	}
	fp.runs.Add(runs)
}

// getBlockScratch returns a pooled BlockProfile bound to c, building a
// fresh one when the pool is empty or holds a profile for a stale
// compiled form (the filter was retrofitted by SetBackend since the
// profile was pooled).
func (fp *filterProfile) getBlockScratch(c *machine.Compiled) *machine.BlockProfile {
	if bp, _ := fp.blockScratch.Get().(*machine.BlockProfile); bp != nil && bp.For(c) {
		return bp
	}
	return machine.NewBlockProfile(c)
}

// flushBlocks expands a BlockProfile's per-block counts to per-PC
// attribution straight into the accumulator, and returns the scratch
// to the pool. runs is how many RunProfiled calls fed bp since the
// last flush (faulted runs count, matching the interpreter path's
// unconditional runs increment).
func (fp *filterProfile) flushBlocks(bp *machine.BlockProfile, runs int64) {
	bp.Expand(fp.add)
	fp.runs.Add(runs)
	bp.Reset()
	fp.blockScratch.Put(bp)
}

// add folds one PC's visits and cycles into the accumulator.
func (fp *filterProfile) add(pc int, visits, cycles int64) {
	fp.visits[pc].Add(visits)
	if cycles != 0 {
		fp.cycles[pc].Add(cycles)
	}
}

// runCompiled executes the threaded-code form with per-block profiling
// and folds the attribution into the accumulator — the single-delivery
// analogue of run. Batch dispatch instead keeps one BlockProfile per
// filter for the whole batch and flushes once (batch.go).
func (fp *filterProfile) runCompiled(c *machine.Compiled, state *machine.State, fuel int) (machine.Result, error) {
	bp := fp.getBlockScratch(c)
	res, err := c.RunProfiled(state, machine.Unchecked, fuel, bp)
	fp.flushBlocks(bp, 1)
	return res, err
}

// snapshot captures the accumulator as a plain machine.Profile.
func (fp *filterProfile) snapshot() *machine.Profile {
	p := machine.NewProfile(len(fp.prog))
	for i := range fp.cycles {
		p.Cycles[i] = fp.cycles[i].Load()
		p.Visits[i] = fp.visits[i].Load()
	}
	p.Runs = fp.runs.Load()
	return p
}

// SetProfiling enables or disables cycle attribution on the dispatch
// path. Enabling attaches an accumulator to every installed filter
// (and to filters installed afterwards); accumulated counts survive
// toggling off and back on, but not reinstalling the filter.
// Installed filters are immutable once published, so attaching is
// copy-on-write: filters lacking an accumulator are replaced by
// clones that carry one (sharing the accept counter), published as a
// new snapshot, with the originals retired past in-flight deliveries.
func (k *Kernel) SetProfiling(on bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if on {
		t := k.table.Load()
		nt, replaced := t.mapped(func(owner string, f *installed) *installed {
			if f.prof != nil {
				return f
			}
			nf := *f
			nf.prof = newFilterProfile(f.ext.Prog)
			return &nf
		})
		if nt != t {
			k.publishLocked(nt, replaced...)
		}
	}
	old := k.profiling.Swap(on)
	k.configChange("profiling", fmt.Sprintf("%t", old), fmt.Sprintf("%t", on))
}

// Profiling reports whether cycle attribution is enabled.
func (k *Kernel) Profiling() bool { return k.profiling.Load() }

// FilterProfileSnapshot is a point-in-time copy of one filter's cycle
// attribution. Each counter is read atomically; under concurrent
// delivery the snapshot is approximate the same way Stats is.
type FilterProfileSnapshot struct {
	Owner   string
	Prog    []alpha.Instr
	Profile *machine.Profile
}

// TotalCycles sums the attributed cycles.
func (s *FilterProfileSnapshot) TotalCycles() int64 { return s.Profile.TotalCycles() }

// AnnotatedListing renders the filter's disassembly with cycles and
// visit counts beside each instruction plus the basic-block rollup.
func (s *FilterProfileSnapshot) AnnotatedListing() string {
	return fmt.Sprintf("filter %q: %d runs, %d cycles attributed\n%s",
		s.Owner, s.Profile.Runs, s.Profile.TotalCycles(),
		s.Profile.AnnotatedListing(s.Prog))
}

// FilterProfile returns the cycle profile of one installed filter, or
// false if the owner has no filter or profiling was never enabled for
// it. Lock-free: it reads the published snapshot under an epoch pin
// (the profiling merge never waits on installs, and vice versa).
func (k *Kernel) FilterProfile(owner string) (*FilterProfileSnapshot, bool) {
	rec := k.epochs.pin(0)
	t := k.table.Load()
	var fp *filterProfile
	if i, ok := t.find(owner); ok {
		fp = t.slots[i].f.prof
	}
	rec.unpin()
	if fp == nil {
		return nil, false
	}
	return &FilterProfileSnapshot{Owner: owner, Prog: fp.prog, Profile: fp.snapshot()}, true
}

// FilterProfiles returns the profiles of all profiled filters, sorted
// by owner (the snapshot's slot order). Lock-free like FilterProfile.
func (k *Kernel) FilterProfiles() []*FilterProfileSnapshot {
	rec := k.epochs.pin(0)
	t := k.table.Load()
	type prof struct {
		owner string
		fp    *filterProfile
	}
	profs := make([]prof, 0, len(t.slots))
	for i := range t.slots {
		if fp := t.slots[i].f.prof; fp != nil {
			profs = append(profs, prof{t.slots[i].owner, fp})
		}
	}
	rec.unpin()
	out := make([]*FilterProfileSnapshot, 0, len(profs))
	for _, p := range profs {
		out = append(out, &FilterProfileSnapshot{Owner: p.owner, Prog: p.fp.prog, Profile: p.fp.snapshot()})
	}
	return out
}

// WriteFilterProfile exports the cycle profiles of every profiled
// filter as one pprof-compatible profile: each executed PC becomes a
// leaf frame carrying the disassembled instruction, stacked under a
// root frame per filter, with visit and cycle sample values (cycles
// last, so it is pprof's default sample index). `go tool pprof -top`
// then ranks simulated instructions by cycles, and the flamegraph
// view nests them under their filter.
func (k *Kernel) WriteFilterProfile(w io.Writer) error {
	snaps := k.FilterProfiles()
	b := pprofenc.NewBuilder([2]string{"visits", "count"}, [2]string{"cycles", "count"})
	b.PeriodType = [2]string{"cycles", "count"}
	b.Period = 1
	b.Comments = append(b.Comments,
		"simulated DEC 21064 cycles attributed per Alpha instruction (repro PCC kernel)")
	for _, s := range snaps {
		root := pprofenc.Frame{Function: s.Owner, File: s.Owner}
		for pc, ins := range s.Prog {
			if pc >= len(s.Profile.Visits) || s.Profile.Visits[pc] == 0 {
				continue
			}
			leaf := pprofenc.Frame{
				Function: fmt.Sprintf("%s@pc%d: %s", s.Owner, pc, ins),
				File:     s.Owner,
				Line:     int64(pc + 1),
			}
			if err := b.AddSample([]pprofenc.Frame{leaf, root},
				[]int64{s.Profile.Visits[pc], s.Profile.Cycles[pc]}); err != nil {
				return err
			}
		}
	}
	return b.Write(w)
}
