// Vectorized packet dispatch: the kernel's one dispatch loop.
// DeliverPackets cuts the packet vector into tiles of 64 packets and
// sweeps each tile; DeliverPacket is the same loop over a one-packet
// vector. The fixed costs are paid once per call — one epoch pin, one
// span, one pooled environment, one snapshot load — and the per-filter
// costs once per filter per call: each filter's counters, profile and
// latency histogram are flushed once, after the last tile.
//
// With a telemetry recorder attached, a tile is swept filter-major: one
// filter runs over the whole tile, then the next filter does. That is
// what makes the per-filter latency histogram cheap: one clock read
// between two sweeps times both (the end of one sweep is the start of
// the next), instead of two reads around every (packet, filter) run.
// With no recorder nothing is timed and a tile is swept packet-major,
// every filter over one packet before the next packet: each packet is
// mapped once, and the filters over it test the same header fields
// back to back, so one run's branch history predicts the next
// filter's branches. Either way a tile's packet headers stay in the
// L1 cache while it is swept.
//
// Like every dispatch path it takes NO lock: the filter set is the
// immutable published snapshot (table.go), already sorted by owner, so
// the whole batch sees one consistent table. Each slot's accepts land
// in a pooled bitmap, one word per tile; the per-packet verdict rows
// are built from it at the end, packet by packet in slot order, so
// each row comes out sorted by owner — the same rows len(pkts)
// one-packet deliveries would produce.
package kernel

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"

	"repro/internal/machine"
	"repro/internal/pktgen"
	"repro/internal/telemetry"
)

// prefetchSink keeps the software-prefetch loads in dispatch
// observable so the compiler cannot eliminate them. Atomic because
// concurrent batches all store to it, once per batch (the value is
// meaningless; only the store's existence matters).
var prefetchSink atomic.Uint32

// DeliverPackets runs every installed filter over each packet of the
// vector and returns, per packet, the owners that accepted it — the
// same verdicts len(pkts) DeliverPacket calls would have produced,
// under a single epoch pin and a single telemetry span
// (StageDispatchBatch). The snapshot is fixed for the whole batch: a
// filter installed or uninstalled mid-batch is either visible to
// every packet of the batch or to none.
//
// A fault in a validated filter aborts the batch with an error and no
// verdicts, and the runs that completed before it are kept: in
// Stats().ExtensionCycles, the per-filter accept and cycle counters,
// and the per-owner latency histograms (which count the faulted run
// too). The profiles keep them as well, and like the interpreter's
// they also count the faulted run and the cycles it retired before
// faulting. Which runs completed follows the sweep order. For a fault
// in filter F on packet P, every filter ran over the 64-packet tiles
// before P's, and in P's tile:
//   - with a recorder (filter-major), the filters before F ran over the
//     whole tile and F over the packets before P;
//   - without one (packet-major), every filter ran over the packets
//     before P, and the filters before F over P.
//
// A faulted batch delivers no packet: Stats().Packets does not count
// any packet of it.
func (k *Kernel) DeliverPackets(pkts [][]byte) ([][]string, error) {
	rows := make([][]string, len(pkts))
	if err := k.dispatch(pkts, rows, telemetry.StageDispatchBatch); err != nil {
		return nil, err
	}
	return rows, nil
}

// dispatchTile is the number of packets a batch is swept in at a
// time: one 64-bit word of accept bits per slot (so it must stay 64),
// and few enough packet headers (at most two cache lines each) that
// every filter of the snapshot finds them still in the L1 cache.
const dispatchTile = 64

// slotRun is one filter slot's accounting over a batch, accumulated
// tile by tile and flushed once: cycles and accepts of the completed
// runs, the runs started (a faulted run included), the wall time of
// the slot's sweeps, and the pooled block profile under compiled
// profiling.
type slotRun struct {
	cycles, accepts, runs int64
	elapsed               time.Duration
	bp                    *machine.BlockProfile
}

// dispatch is the dispatch loop behind DeliverPackets and
// DeliverPacket: it runs every slot of the pinned snapshot over pkts,
// tile by tile, and fills rows (len(rows) == len(pkts)) with each
// packet's sorted accept list. stage names the call's telemetry span.
func (k *Kernel) dispatch(pkts [][]byte, rows [][]string, stage string) error {
	tel := k.tel.Load()
	eid := k.nextEvent(tel)
	span := tel.span(stage, "", eid)
	supervised := k.brkArmed.Load() != 0
	if supervised {
		// Probe expired breakers before the snapshot load so a
		// re-admitted compiled form is visible to this whole batch.
		k.breakerTick(eid)
	}
	env := k.statePool.Get().(*packetEnv)
	defer k.statePool.Put(env)
	defer env.releasePacket()
	profiling := k.profiling.Load()

	// Pin an epoch and load the snapshot: the batch's entire view of
	// the filter set, pre-sorted by owner. The pin keeps a concurrently
	// retired snapshot (and its compiled programs) alive until the
	// batch finishes.
	rec := k.epochs.pin(int(env.shard))
	defer rec.unpin()
	slots := k.table.Load().slots
	acc, words, runs := env.prepare(len(pkts), len(slots))
	if profiling {
		for si := range slots {
			if s := &slots[si]; s.f.prof != nil && s.c != nil {
				// Compiled profiling: one pooled BlockProfile
				// accumulates the filter's whole batch; the flush
				// expands and merges it once.
				runs[si].bp = s.f.prof.getBlockScratch(s.c)
			}
		}
	}

	// The sweeps, tile by tile. A sweep runs a group of slots over a
	// tile, packet by packet: with telemetry on a group is one slot
	// (filter-major order), and one clock read between sweeps times
	// them all — the end of one sweep is the start of the next; with
	// telemetry off it is every slot (packet-major order, see the
	// package comment).
	group := max(len(slots), 1)
	var t0 time.Time
	if tel != nil {
		group = 1
		t0 = time.Now()
	}
	var err error
	var faulted int // the faulting slot, when err != nil
	var sink byte
tiles:
	for lo := 0; lo < len(pkts); lo += dispatchTile {
		tile := pkts[lo:min(lo+dispatchTile, len(pkts))]
		sink += env.prefetch(k, tile, lo, profiling, eid)
		for g := 0; g < len(slots); g += group {
			h := min(g+group, len(slots))
			var j int
			j, err = k.sweep(env, slots[g:h], runs[g:h], acc[g*words:], words, tile, lo, profiling)
			if tel != nil {
				t1 := time.Now()
				runs[g].elapsed += t1.Sub(t0)
				t0 = t1
			}
			if err != nil {
				faulted = g + j
				break tiles
			}
		}
	}

	prefetchSink.Store(uint32(sink))

	// Flush the accounting once per filter, faulted batch or not: the
	// runs that completed are kept. The counters' and histograms'
	// windows are stamped with the last clock reading. The flush leaves
	// each slot's accounting zeroed for the next batch, and no block
	// profile pinned by the pooled environment.
	var totalCycles, totalAccepts int64
	for si := range slots {
		s, r := &slots[si], &runs[si]
		totalCycles += r.cycles
		if r.accepts != 0 {
			totalAccepts += r.accepts
			s.f.accepts.add(int(env.shard), r.accepts)
			env.hot = append(env.hot, hotSlot{si: int32(si)})
		}
		if r.bp != nil {
			s.f.prof.flushBlocks(r.bp, r.runs)
		}
		if tel != nil {
			fo := tel.filter(s.owner)
			fo.runBatch(r.cycles, r.accepts, t0.UnixNano())
			fo.latency.ObserveBatchEID(r.elapsed, r.runs, eid, t0)
		}
		*r = slotRun{}
	}
	sh := &k.stats.shards[env.shard]
	sh.cycles.Add(totalCycles)
	if err != nil {
		owner := slots[faulted].owner
		kind := dispatchFaultKind(err)
		k.flight(kind, owner, err.Error(), eid)
		k.breakerFault(owner, kind, eid)
		span.End(err)
		return fmt.Errorf("kernel: validated filter %q faulted: %w", owner, err)
	}
	sh.packets.Add(int64(len(pkts)))
	if tel != nil {
		tel.packetBatch(int64(len(pkts)), t0.UnixNano())
	}
	if supervised {
		// The whole batch ran fault-free: one clean observation per
		// filter (probation progress is per delivery, not per packet).
		for si := range slots {
			k.breakerClean(slots[si].owner, eid)
		}
	}
	span.End(nil)

	// Build the rows tile by tile: gather the accepting slots' words
	// for the tile, then, for each packet any of them accepted, walk
	// them in slot order so the row comes out sorted by owner. All rows
	// share one backing array.
	if totalAccepts == 0 {
		return nil
	}
	names := make([]string, 0, totalAccepts)
	hot := env.hot
	for w := 0; w < words; w++ {
		var accepted uint64
		for j := range hot {
			hot[j].word = acc[int(hot[j].si)*words+w]
			accepted |= hot[j].word
		}
		for ; accepted != 0; accepted &= accepted - 1 {
			i := bits.TrailingZeros64(accepted)
			lo := len(names)
			for _, h := range hot {
				if h.word&(1<<i) != 0 {
					names = append(names, slots[h.si].owner)
				}
			}
			rows[w*dispatchTile+i] = names[lo:len(names):len(names)]
		}
	}
	return nil
}

// hotSlot is a slot that accepted some packet of the batch, with one
// tile's accept word gathered while the rows are built.
type hotSlot struct {
	si   int32
	word uint64
}

// prefetch readies one tile — packets base to base+len(tile)-1 — for
// its sweeps. It touches each packet's first 64 bytes (the header words
// filters decode; two cache lines when the buffer is not line-aligned)
// before any filter runs: issued back to back the misses overlap each
// other in the memory system, where issued from inside the sweeps each
// would serialize against a filter run. It also records each oversized
// packet's fallback once, and under profiling fills each unaligned
// packet's tail word eagerly: a tail-fault retry would attribute the
// aborted run's retired prefix a second time, skewing the counts the
// differential suite holds bit-exact. Filled here, the tail costs one
// copy per packet, not one per run. It returns the bytes it touched,
// summed, for the caller to publish once per batch (prefetchSink).
func (e *packetEnv) prefetch(k *Kernel, tile [][]byte, base int, profiling bool, eid uint64) (sink byte) {
	for _, p := range tile {
		if len(p) == 0 {
			continue
		}
		sink += p[0] + p[min(len(p), 64)-1]
		if len(p) > maxPooledPacket {
			k.flight(telemetry.FlightOversizePacket, "", fmt.Sprintf("len=%d", len(p)), eid)
		} else if profiling {
			sink += p[len(p)-1] // the tail line, copied below
		}
	}
	if profiling {
		for i, p := range tile {
			if len(p) <= maxPooledPacket && len(p)&7 != 0 {
				e.fillTail(base+i, p)
			}
		}
	}
	return sink
}

// sweep runs a group of filter slots over one tile of the batch —
// packets base to base+len(tile)-1 — packet by packet, into the
// slots' batch accounting runs, setting bit i of a slot's tile word in
// acc (rows of words words per slot) when it accepts tile packet i. It
// stops at the first fault and returns it with the faulting slot's
// index in the group.
func (k *Kernel) sweep(env *packetEnv, slots []tableSlot, runs []slotRun, acc []uint64, words int, tile [][]byte, base int, profiling bool) (int, error) {
	w := base / dispatchTile
	for i, data := range tile {
		pi := base + i
		pooled := len(data) <= maxPooledPacket
		if pooled {
			env.setPacket(pi, data)
		}
		for j := range slots {
			s, r := &slots[j], &runs[j]
			c := s.c
			var state *machine.State
			if pooled {
				if env.dirtyScratch {
					env.wipeScratch()
				}
				if s.lite {
					env.resetLite(len(data))
				} else {
					env.reset(len(data))
				}
				state = &env.state
			} else {
				state = k.packetState(pktgen.Packet{Data: data})
			}
			r.runs++
			var res machine.Result
			var err error
			// runInstalled, unrolled so the backend branch stays out of
			// the per-op path.
			switch {
			case r.bp != nil:
				res, err = c.RunProfiled(state, machine.Unchecked, dispatchFuel, r.bp)
			case c != nil:
				res, err = c.Run(state, machine.Unchecked, dispatchFuel)
			default:
				res, _, err = runInstalled(s.f, state, profiling)
			}
			dirties := c == nil || c.WritesMemory()
			if pooled && dirties {
				env.dirtyScratch = true
			}
			if err != nil && pooled && env.tailFault(err) {
				// The filter touched the packet's unaligned final word —
				// the one piece zero-copy dispatch defers copying.
				// Materialize the tail and rerun the filter from a fresh
				// state; the rerun behaves exactly as if the tail had
				// been mapped all along, and later filters see it mapped.
				env.materializeTail(pi, data)
				env.wipeScratch() // the aborted run may have written scratch
				env.reset(len(data))
				if c != nil {
					res, err = c.Run(state, machine.Unchecked, dispatchFuel)
				} else {
					res, _, err = runInstalled(s.f, state, profiling)
				}
				if dirties {
					env.dirtyScratch = true
				}
			}
			if err != nil {
				return j, err
			}
			r.cycles += res.Cycles
			if res.Ret != 0 {
				acc[j*words+w] |= 1 << i
				r.accepts++
			}
		}
	}
	return 0, nil
}
