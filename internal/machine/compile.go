// Install-time compilation of validated filters. The paper's whole
// argument is that every safety cost is paid once, before execution —
// so the dispatch loop should not pay an interpretation tax either.
// Compile translates a program of the Alpha subset into threaded code:
// basic blocks of pre-decoded micro-ops (operands resolved, r31
// folded, literals materialized, shift amounts pre-masked, cycle
// costs baked in from the active cost model) that chain by direct
// block index instead of a per-step fetch/decode switch. Common
// instruction shapes execute inline in the block runner — loads and
// stores against the state's last-hit region resolve without a
// function call — while the rare r31-reading shapes fall back to a
// pre-decoded closure.
//
// The compiled form is behaviorally identical to Interp — same
// verdict, same retired-step count, same cycle accounting, same
// faults at the same PCs, same visible memory effects — which the
// backend-differential tests (compile_differential_test.go and the
// kernel-level suite) pin across the paper corpus, machine-generated
// programs, and chaos-accepted mutants. The interpreter remains the
// reference oracle; compilation is a pure dispatch-speed backend
// selected at install time, after the proof check has succeeded.
// Profiling runs natively on both backends: RunProfiled counts
// retired basic blocks (see blockprofile.go) and expands them to the
// interpreter's exact per-PC attribution at flush time.
package machine

import (
	"encoding/binary"
	"fmt"

	"repro/internal/alpha"
)

// opFunc executes one pre-decoded straight-line instruction: the
// fallback form for shapes rare enough not to deserve a micro-op kind.
// Only memory instructions can return a non-nil error (a *MemFault).
type opFunc func(s *State) error

// Micro-op kinds. Destination registers are never r31 (alpha.Validate
// rejects it), so u.ra/u.rc index the register file directly.
const (
	uCall  uint8 = iota // generic fallback: run u.fn
	uLDQ                // R[ra] = mem[R[rb]+imm]
	uLDQa               // R[ra] = mem[imm]          (base r31: absolute)
	uSTQ                // mem[R[rb]+imm] = R[ra]
	uLDA                // R[ra] = R[rb] + imm
	uLDAc               // R[ra] = imm               (base r31: constant)
	uADDQl              // R[rc] = R[ra] + imm       ...literal operate forms
	uSUBQl
	uMULQl
	uANDl
	uBISl
	uXORl
	uSLLl // imm pre-masked to 0..63
	uSRLl
	uCMPEQl
	uCMPULTl
	uCMPULEl
	uADDQ // R[rc] = R[ra] op R[rb]   ...register operate forms
	uSUBQ
	uMULQ
	uAND
	uBIS
	uXOR
	uSLL
	uSRL
	uCMPEQ
	uCMPULT
	uCMPULE
	// Fused kinds (fast-path only; the slow path always executes the
	// unfused op list so fuel can run out between the ops of a pair).
	uLDQ_SLLl // v = mem[R[rb]+imm]; R[ra] = v; R[rc] = v << imm2
	uLDQ_SRLl // v = mem[R[rb]+imm]; R[ra] = v; R[rc] = v >> imm2
	uLDQ_ANDl // v = mem[R[rb]+imm]; R[ra] = v; R[rc] = v & imm2
	uLDQ_EXTl // v = mem[R[rb]+imm]; R[ra] = v; R[rc] = v<<(imm2>>8) >> (imm2&63)
	uEXTl     // R[rc] = R[ra]<<imm >> imm2
	uSRL_ANDl // R[rc] = R[ra]>>imm & imm2
)

// uop is one pre-decoded straight-line instruction.
type uop struct {
	kind       uint8
	ra, rb, rc uint8
	imm        uint64
	fn         opFunc // uCall only
}

// fuop is one fast-path micro-op: possibly several consecutive
// instructions fused into a superinstruction (a load plus the field
// extraction applied to it, a shift-mask pair, a folded constant
// chain). Fusion is only sound when no observation point can fall
// inside the group; the fast path guarantees that, because it runs a
// block only when the whole block fits in the remaining fuel, and the
// only op in a group that can fault is its first (the memory access).
type fuop struct {
	kind       uint8
	ra, rb, rc uint8
	imm, imm2  uint64
	fn         opFunc // uCall only
	pc         int32  // pc of the group's faulting op, for attribution
	stepsAt    int32  // unfused ops retired before this group
	costAt     int64  // cycles accrued before this group (within block)
}

// Branch condition kinds (the terminator's test, on a non-r31
// register; r31 conditions are folded to fixed jumps at compile time).
const (
	condEQ uint8 = iota
	condNE
	condGE
	condLT
)

// blockKind classifies how a basic block transfers control after its
// straight-line body.
type blockKind uint8

const (
	// blockFall falls through to the next block without consuming an
	// instruction (the next PC is simply another block's leader).
	blockFall blockKind = iota
	// blockJump consumes one branch instruction with a fixed outcome:
	// BR, or a conditional branch whose condition is constant because
	// it tests r31.
	blockJump
	// blockCond consumes one conditional branch instruction and picks
	// between two successor blocks.
	blockCond
	// blockRet consumes a RET instruction and ends execution.
	blockRet
	// blockExit is the virtual block at PC == len(prog): falling off
	// the end (or branching to one past the end, which the VC
	// generator's convention allows) returns without retiring an
	// instruction.
	blockExit
)

// block is one compiled basic block: a straight-line body plus a
// terminator. Blocks are immutable after Compile and hold no
// execution state, so one Compiled program may run on any number of
// goroutines concurrently (each with its own *State).
type block struct {
	ops   []uop
	pcs   []int32 // pc per body op, for fault attribution and fuel exhaustion
	costs []int64 // cycle cost per body op (static for non-branch ops)

	// Fast-path form: the body peephole-fused into superinstructions,
	// with a trailing compare pulled out next to the terminator that
	// consumes it. fsteps is the retired-instruction count of the whole
	// block including its terminator; the fast path runs only when
	// steps+fsteps <= fuel, so it needs no per-op fuel checks and no
	// unfused intermediate states are observable.
	fops   []fuop
	cmp    uop // trailing compare (hasCmp), run between body and terminator
	hasCmp bool
	// condFromCmp: the terminator's condition register is exactly the
	// folded compare's destination, so the fast path branches on the
	// compare's value without reloading the register.
	condFromCmp bool
	fsteps      int

	kind     blockKind
	next     int // successor block: fall-through / condition-false
	taken    int // successor block when the condition holds (blockJump/blockCond)
	condKind uint8
	condRa   uint8
	termPC   int32 // pc of the terminator instruction
	// Terminator cycle costs: costTaken for the taken edge (and for
	// blockJump and blockRet, which have only one edge), costNot for a
	// conditional branch that falls through.
	costTaken int64
	costNot   int64

	// Specialized epilogue (ep): the overwhelmingly common block shape
	// in filter code is a conditional branch reading the compare
	// retired immediately before it. epCondCmp runs compare and branch
	// as one fused step over edge fields pre-normalized to the
	// compare's truth value (tTrue/cTrue when the compare holds),
	// absorbing the branch-sense flip at compile time. Every other
	// shape takes epGeneric, the unspecialized compare+terminator
	// path.
	ep     uint8
	tTrue  int
	tFalse int
	cTrue  int64
	cFalse int64
	// bodyCost is the cycle total of the whole body, so the fast path
	// charges one add per block; costs[] remains for fault attribution
	// (a faulting op's predecessors charged, the op itself not).
	bodyCost int64
}

// Compiled is a program translated to threaded code for one cost
// model. It is safe for concurrent use.
type Compiled struct {
	prog     []alpha.Instr
	cm       *CostModel
	blocks   []block
	hasStore bool
	liveIn   uint32
}

// Compile translates prog into threaded code under the given cost
// model (nil means cycles are not accounted, exactly as with Interp).
// It rejects statically malformed programs — invalid registers, r31
// destinations, out-of-range branch targets, unknown opcodes — the
// same programs the paper's loader (alpha.Validate) or the
// interpreter's illegal-instruction path would refuse. A validated
// PCC extension always compiles.
func Compile(prog []alpha.Instr, cm *CostModel) (*Compiled, error) {
	if err := alpha.Validate(prog); err != nil {
		return nil, fmt.Errorf("machine: compile: %w", err)
	}
	// alpha.Validate classifies unknown opcodes as operate-format, so
	// the opcode whitelist must be explicit: an unknown op is the
	// interpreter's illegal-instruction fault, which threaded code has
	// no runtime switch to catch.
	for pc, ins := range prog {
		if !knownOp(ins.Op) {
			return nil, fmt.Errorf("machine: compile: pc %d: illegal instruction %v", pc, ins.Op)
		}
	}

	c := &Compiled{prog: prog, cm: cm, liveIn: liveInRegs(prog)}
	for _, ins := range prog {
		if ins.Op == alpha.STQ {
			c.hasStore = true
			break
		}
	}

	// Block leaders: entry, every branch target, and every instruction
	// following a control transfer. len(prog) is the virtual exit.
	leader := make([]bool, len(prog)+1)
	leader[0] = true
	leader[len(prog)] = true
	for pc, ins := range prog {
		switch ins.Op.Class() {
		case alpha.ClassBranch:
			leader[ins.Target] = true
			leader[pc+1] = true
		case alpha.ClassRet:
			leader[pc+1] = true
		}
	}
	blockAt := make([]int, len(prog)+1) // leader pc -> block index
	nblocks := 0
	for pc := 0; pc <= len(prog); pc++ {
		if leader[pc] {
			blockAt[pc] = nblocks
			nblocks++
		}
	}

	c.blocks = make([]block, 0, nblocks)
	pc := 0
	for pc <= len(prog) {
		if pc == len(prog) {
			c.blocks = append(c.blocks, block{kind: blockExit})
			break
		}
		var b block
		terminated := false
		for pc < len(prog) {
			ins := prog[pc]
			cls := ins.Op.Class()
			if cls == alpha.ClassBranch || cls == alpha.ClassRet {
				b.termPC = int32(pc)
				switch {
				case ins.Op == alpha.RET:
					b.kind = blockRet
					b.costTaken = c.cost(ins, false)
				case ins.Op == alpha.BR:
					b.kind = blockJump
					b.taken = blockAt[ins.Target]
					b.costTaken = c.cost(ins, true)
				case ins.Ra == alpha.RegZero:
					// A condition on r31 is constant: BEQ/BGE always
					// taken, BNE/BLT never. Fold to a fixed jump with
					// the cycle cost the interpreter charges for that
					// outcome.
					b.kind = blockJump
					if ins.Op == alpha.BEQ || ins.Op == alpha.BGE {
						b.taken = blockAt[ins.Target]
						b.costTaken = c.cost(ins, true)
					} else {
						b.taken = blockAt[pc+1]
						b.costTaken = c.cost(ins, false)
					}
				default:
					b.kind = blockCond
					b.condKind = condOf(ins.Op)
					b.condRa = uint8(ins.Ra)
					b.taken = blockAt[ins.Target]
					b.next = blockAt[pc+1]
					b.costTaken = c.cost(ins, true)
					b.costNot = c.cost(ins, false)
				}
				pc++
				terminated = true
				break
			}
			u, err := compileStraight(ins)
			if err != nil {
				return nil, err
			}
			b.ops = append(b.ops, u)
			b.pcs = append(b.pcs, int32(pc))
			b.costs = append(b.costs, c.cost(ins, false))
			pc++
			if leader[pc] {
				break
			}
		}
		if !terminated {
			// Stopped at a leader (a branch target, or the virtual
			// exit): fall through without consuming an instruction.
			b.kind = blockFall
			b.next = blockAt[pc]
		}
		for _, cost := range b.costs {
			b.bodyCost += cost
		}
		b.buildFast()
		c.blocks = append(c.blocks, b)
	}
	return c, nil
}

// isCmp reports whether kind is one of the compare micro-ops.
func isCmp(kind uint8) bool {
	switch kind {
	case uCMPEQl, uCMPULTl, uCMPULEl, uCMPEQ, uCMPULT, uCMPULE:
		return true
	}
	return false
}

// foldLit applies a literal ALU op to a compile-time constant, for
// folding `LDA rd, c(r31)`-rooted chains. ok is false for kinds that
// are not pure same-register literal ALU.
func foldLit(kind uint8, v, imm uint64) (out uint64, ok bool) {
	switch kind {
	case uADDQl:
		return v + imm, true
	case uSUBQl:
		return v - imm, true
	case uMULQl:
		return v * imm, true
	case uANDl:
		return v & imm, true
	case uBISl:
		return v | imm, true
	case uXORl:
		return v ^ imm, true
	case uSLLl:
		return v << imm, true
	case uSRLl:
		return v >> imm, true
	}
	return 0, false
}

// buildFast derives the block's fast-path form from its unfused body:
// a trailing compare is pulled out beside the terminator (so a
// compare-and-branch or compare-and-return pair costs one dispatch,
// not two), constant-materialization chains rooted at an r31-based LDA
// fold to a single constant store, and the packet-filter idioms — a
// load feeding a shift/mask of its own result, a shift-left/shift-right
// field extraction, a shift-then-mask — fuse into superinstructions.
// Every fusion preserves the unfused semantics at every observation
// point the fast path can reach: group boundaries (where a memory op
// may fault) and block exit. The unfused ops remain the slow path's
// (and the fault/fuel accounting's) source of truth.
func (b *block) buildFast() {
	n := len(b.ops)
	if n > 0 && isCmp(b.ops[n-1].kind) {
		b.cmp = b.ops[n-1]
		b.hasCmp = true
		n--
	}
	costAt := int64(0)
	for i := 0; i < n; {
		u := &b.ops[i]
		f := fuop{kind: u.kind, ra: u.ra, rb: u.rb, rc: u.rc, imm: u.imm,
			fn: u.fn, pc: b.pcs[i], stepsAt: int32(i), costAt: costAt}
		j := i + 1
		switch u.kind {
		case uLDAc:
			// Constant chain: subsequent literal ALU ops that read and
			// write the same register fold into the constant itself
			// (the assembler materializes wide constants as
			// LDA/SLL/BIS triples).
			for j < n && b.ops[j].ra == f.ra && b.ops[j].rc == f.ra {
				v, ok := foldLit(b.ops[j].kind, f.imm, b.ops[j].imm)
				if !ok {
					break
				}
				f.imm = v
				j++
			}
		case uLDQ:
			// Load + literal shift/mask of the loaded value. Both
			// destinations are written in program order, so the pair
			// (and the extract triple) is exact even when the ALU
			// result lands back in the load's destination.
			if j < n && b.ops[j].ra == u.ra {
				switch b.ops[j].kind {
				case uSLLl:
					f.kind, f.rc, f.imm2 = uLDQ_SLLl, b.ops[j].rc, b.ops[j].imm
					j++
					if j < n && b.ops[j].kind == uSRLl &&
						b.ops[j].ra == f.rc && b.ops[j].rc == f.rc {
						// The full header-field extract:
						// LDQ; SLL k1; SRL k2 on one register chain.
						f.kind = uLDQ_EXTl
						f.imm2 = f.imm2<<8 | b.ops[j].imm
						j++
					}
				case uSRLl:
					f.kind, f.rc, f.imm2 = uLDQ_SRLl, b.ops[j].rc, b.ops[j].imm
					j++
				case uANDl:
					f.kind, f.rc, f.imm2 = uLDQ_ANDl, b.ops[j].rc, b.ops[j].imm
					j++
				}
			}
		case uSLLl:
			// Shift-left then shift-right on one register: a field
			// extract. Only fused when the intermediate lands in the
			// final register, so no intermediate value stays live.
			if j < n && b.ops[j].kind == uSRLl &&
				b.ops[j].ra == u.rc && b.ops[j].rc == u.rc {
				f.kind, f.imm2 = uEXTl, b.ops[j].imm
				j++
			}
		case uSRLl:
			if j < n && b.ops[j].kind == uANDl &&
				b.ops[j].ra == u.rc && b.ops[j].rc == u.rc {
				f.kind, f.imm2 = uSRL_ANDl, b.ops[j].imm
				j++
			}
		}
		for ; i < j; i++ {
			costAt += b.costs[i]
		}
		b.fops = append(b.fops, f)
	}
	b.fsteps = len(b.ops)
	switch b.kind {
	case blockJump, blockCond, blockRet:
		b.fsteps++
	}
	b.condFromCmp = b.hasCmp && b.kind == blockCond && b.condRa == b.cmp.rc &&
		(b.condKind == condEQ || b.condKind == condNE)
	b.ep = epGeneric
	if b.condFromCmp {
		b.ep = epCondCmp
		if b.condKind == condNE {
			b.tTrue, b.cTrue = b.taken, b.costTaken
			b.tFalse, b.cFalse = b.next, b.costNot
		} else {
			b.tTrue, b.cTrue = b.next, b.costNot
			b.tFalse, b.cFalse = b.taken, b.costTaken
		}
	}
}

// Epilogue specializations (block.ep).
const (
	epGeneric uint8 = iota
	epCondCmp
)

// condOf maps a conditional-branch opcode to its condition kind.
func condOf(op alpha.Op) uint8 {
	switch op {
	case alpha.BEQ:
		return condEQ
	case alpha.BNE:
		return condNE
	case alpha.BGE:
		return condGE
	case alpha.BLT:
		return condLT
	}
	panic(fmt.Sprintf("machine: condOf on %v", op))
}

// cost is the compile-time cycle cost of ins under the captured model.
func (c *Compiled) cost(ins alpha.Instr, taken bool) int64 {
	if c.cm == nil {
		return 0
	}
	return int64(c.cm.cost(ins, taken))
}

// Len returns the instruction count of the compiled program.
func (c *Compiled) Len() int { return len(c.prog) }

// NumBlocks returns the basic-block count (the virtual exit included).
func (c *Compiled) NumBlocks() int { return len(c.blocks) }

// Prog returns the program the micro-ops were compiled from.
func (c *Compiled) Prog() []alpha.Instr { return c.prog }

// WritesMemory reports whether the program contains any store. A
// compiled filter with no store provably cannot dirty scratch memory,
// which lets vectorized dispatch skip the between-runs scratch wipe.
func (c *Compiled) WritesMemory() bool { return c.hasStore }

// LiveInRegs returns the set of registers (as a bitmask, bit i for
// ri) whose initial values the program may observe: registers some
// execution path reads before writing. r31 is never included (it
// always reads zero), and a RET — or falling off the end — counts as
// a read of r0. A dispatcher only needs to initialize these registers
// between runs; every other register is provably written before any
// use, so stale values from a previous run cannot influence the
// result.
func (c *Compiled) LiveInRegs() uint32 { return c.liveIn }

// liveInRegs is a must-write dataflow analysis over the raw program.
// written[pc] is the set of registers written on EVERY path from
// entry to pc (meet = intersection, top = all). After the fixpoint, a
// final sweep collects reads not covered by the must-written set.
// Conservative in the right direction: join points only shrink the
// written set, so any register possibly read before a write lands in
// the result.
func liveInRegs(prog []alpha.Instr) uint32 {
	const allRegs = (1 << alpha.NumRegs) - 1
	n := len(prog)
	written := make([]uint32, n+1) // index n: the virtual fall-off exit
	for i := 1; i <= n; i++ {
		written[i] = allRegs
	}
	flow := func(pc int, apply func(succ int, out uint32)) (reads, writes uint32) {
		ins := prog[pc]
		switch ins.Op {
		case alpha.LDQ, alpha.LDA:
			reads = 1 << ins.Rb
			writes = 1 << ins.Ra
		case alpha.STQ:
			reads = 1<<ins.Ra | 1<<ins.Rb
		case alpha.BEQ, alpha.BNE, alpha.BGE, alpha.BLT:
			reads = 1 << ins.Ra
		case alpha.BR, alpha.RET:
			// BR transfers unconditionally; RET reads r0, handled by
			// the caller (it has no successor).
		default: // operate ops
			reads = 1 << ins.Ra
			if !ins.HasLit {
				reads |= 1 << ins.Rb
			}
			writes = 1 << ins.Rc
		}
		if apply != nil {
			out := written[pc] | writes
			switch ins.Op {
			case alpha.BR:
				apply(ins.Target, out)
			case alpha.BEQ, alpha.BNE, alpha.BGE, alpha.BLT:
				apply(ins.Target, out)
				apply(pc+1, out)
			case alpha.RET:
			default:
				apply(pc+1, out)
			}
		}
		return reads, writes
	}
	for changed := true; changed; {
		changed = false
		for pc := 0; pc < n; pc++ {
			if written[pc] == allRegs && pc != 0 {
				continue // not (yet) reachable
			}
			flow(pc, func(succ int, out uint32) {
				if nw := written[succ] & out; nw != written[succ] {
					written[succ] = nw
					changed = true
				}
			})
		}
	}
	var rbw uint32
	for pc := 0; pc < n; pc++ {
		if written[pc] == allRegs && pc != 0 {
			continue
		}
		reads, _ := flow(pc, nil)
		rbw |= reads &^ written[pc]
		if prog[pc].Op == alpha.RET {
			rbw |= 1 &^ written[pc]
		}
	}
	if written[n] != allRegs || n == 0 {
		rbw |= 1 &^ written[n]
	}
	return rbw &^ (1 << alpha.RegZero)
}

// exec1 executes one micro-op: the out-of-line form the fuel-bounded
// slow path uses, semantically identical to the inlined fast-path
// switch in Run (the fuel-edge and differential tests pin the two
// against the interpreter op by op).
func (b *block) exec1(s *State, i int) error {
	u := &b.ops[i]
	switch u.kind {
	case uLDQ:
		v, err := s.Mem.ReadQ(s.R[u.rb] + u.imm)
		if err != nil {
			return err
		}
		s.R[u.ra] = v
	case uLDQa:
		v, err := s.Mem.ReadQ(u.imm)
		if err != nil {
			return err
		}
		s.R[u.ra] = v
	case uSTQ:
		return s.Mem.WriteQ(s.R[u.rb]+u.imm, s.R[u.ra])
	case uLDA:
		s.R[u.ra] = s.R[u.rb] + u.imm
	case uLDAc:
		s.R[u.ra] = u.imm
	case uADDQl:
		s.R[u.rc] = s.R[u.ra] + u.imm
	case uSUBQl:
		s.R[u.rc] = s.R[u.ra] - u.imm
	case uMULQl:
		s.R[u.rc] = s.R[u.ra] * u.imm
	case uANDl:
		s.R[u.rc] = s.R[u.ra] & u.imm
	case uBISl:
		s.R[u.rc] = s.R[u.ra] | u.imm
	case uXORl:
		s.R[u.rc] = s.R[u.ra] ^ u.imm
	case uSLLl:
		s.R[u.rc] = s.R[u.ra] << u.imm
	case uSRLl:
		s.R[u.rc] = s.R[u.ra] >> u.imm
	case uCMPEQl:
		s.R[u.rc] = b2i(s.R[u.ra] == u.imm)
	case uCMPULTl:
		s.R[u.rc] = b2i(s.R[u.ra] < u.imm)
	case uCMPULEl:
		s.R[u.rc] = b2i(s.R[u.ra] <= u.imm)
	case uADDQ:
		s.R[u.rc] = s.R[u.ra] + s.R[u.rb]
	case uSUBQ:
		s.R[u.rc] = s.R[u.ra] - s.R[u.rb]
	case uMULQ:
		s.R[u.rc] = s.R[u.ra] * s.R[u.rb]
	case uAND:
		s.R[u.rc] = s.R[u.ra] & s.R[u.rb]
	case uBIS:
		s.R[u.rc] = s.R[u.ra] | s.R[u.rb]
	case uXOR:
		s.R[u.rc] = s.R[u.ra] ^ s.R[u.rb]
	case uSLL:
		s.R[u.rc] = s.R[u.ra] << (s.R[u.rb] & 63)
	case uSRL:
		s.R[u.rc] = s.R[u.ra] >> (s.R[u.rb] & 63)
	case uCMPEQ:
		s.R[u.rc] = b2i(s.R[u.ra] == s.R[u.rb])
	case uCMPULT:
		s.R[u.rc] = b2i(s.R[u.ra] < s.R[u.rb])
	case uCMPULE:
		s.R[u.rc] = b2i(s.R[u.ra] <= s.R[u.rb])
	default: // uCall
		return u.fn(s)
	}
	return nil
}

// Run executes the compiled program from s.PC until return, fault, or
// fuel exhaustion, with exactly the interpreter's observable behavior:
// Result fields, error identity and attribution, final register file,
// PC, and memory effects all match Interp(prog, s, mode, cm, fuel).
// mode only affects fault classification (Wild), as in the
// interpreter; the compiled code itself performs no safety checks —
// it exists because validation made them unnecessary.
func (c *Compiled) Run(s *State, mode Mode, fuel int) (Result, error) {
	if s.PC != 0 {
		// Entry at an arbitrary PC (a mid-program resume) is not a
		// dispatch path; the reference interpreter is the semantics.
		return Interp(c.prog, s, mode, c.cm, fuel)
	}
	return crun(c, s, mode, fuel, noSink{})
}

// RunProfiled is Run with per-block profile accumulation into bp,
// which must have been built for this Compiled (NewBlockProfile).
// Execution semantics are identical to Run; the attribution recorded
// in bp, once expanded by BlockProfile.AddTo, is identical to what
// InterpProfiled would have recorded for the same run — including
// partial attribution on faults and fuel exhaustion. The per-run cost
// over Run is one counter increment per retired basic block; the
// per-PC expansion is deferred to AddTo.
func (c *Compiled) RunProfiled(s *State, mode Mode, fuel int, bp *BlockProfile) (Result, error) {
	if !bp.For(c) {
		panic("machine: RunProfiled: BlockProfile built for a different Compiled")
	}
	if s.PC != 0 {
		bp.slow = true
		return InterpProfiled(c.prog, s, mode, c.cm, fuel, bp.part)
	}
	return crun(c, s, mode, fuel, bp)
}

// crun is the shared block runner behind Run and RunProfiled. The
// sink is a compile-time instantiation choice: noSink for the
// unprofiled path (its empty inlined methods make profiling cost
// nothing when off, pinned by a benchmark and an AllocsPerRun test),
// *BlockProfile for the profiled one.
func crun[S blockSink](c *Compiled, s *State, mode Mode, fuel int, sink S) (Result, error) {
	// Steps and cycles live in locals so the hot loop touches no
	// struct fields; the Result is assembled once at each exit.
	var steps int
	var cycles int64
	// Fault epilogue state (see the fail label): set by a faulting
	// fused op before it jumps out of the hot loop, so the loop body
	// carries no per-op fault check.
	var fu *fuop
	var fault error
	var b *block
	blocks := c.blocks
	bi := 0
	for {
		b = &blocks[bi]
		if steps+b.fsteps > fuel {
			// Fuel could run out inside this block: take the unfused
			// slow path, which checks fuel before every retired
			// instruction exactly like the interpreter.
			nsteps, ncycles, nbi, res, done, err := crunSlow(c, s, b, mode, fuel, steps, cycles, sink)
			if done {
				return res, err
			}
			steps, cycles, bi = nsteps, ncycles, nbi
			continue
		}
		// Fast path: the whole block — body and terminator — fits in
		// the remaining fuel, so no per-op fuel compare is needed, the
		// body's cycle total is charged with one add, and fused
		// superinstructions are safe (no observation point can land
		// between their ops). Memory ops try the state's last-hit
		// region inline before the general lookup.
		fops := b.fops
		for i := range fops {
			u := &fops[i]
			switch u.kind {
			case uLDQ:
				addr := s.R[u.rb] + u.imm
				if r := s.Mem.last; addr%8 == 0 && r != nil && addr-r.Base < uint64(len(r.data)) {
					s.R[u.ra] = binary.LittleEndian.Uint64(r.data[addr-r.Base:])
				} else if v, err := s.Mem.ReadQ(addr); err == nil {
					s.R[u.ra] = v
				} else {
					fu, fault = u, err
					goto fail
				}
			case uLDQ_SLLl, uLDQ_SRLl, uLDQ_ANDl, uLDQ_EXTl:
				addr := s.R[u.rb] + u.imm
				var v uint64
				if r := s.Mem.last; addr%8 == 0 && r != nil && addr-r.Base < uint64(len(r.data)) {
					v = binary.LittleEndian.Uint64(r.data[addr-r.Base:])
				} else if w, err := s.Mem.ReadQ(addr); err == nil {
					v = w
				} else {
					fu, fault = u, err
					goto fail
				}
				s.R[u.ra] = v
				switch u.kind {
				case uLDQ_SLLl:
					s.R[u.rc] = v << u.imm2
				case uLDQ_SRLl:
					s.R[u.rc] = v >> u.imm2
				case uLDQ_ANDl:
					s.R[u.rc] = v & u.imm2
				default: // uLDQ_EXTl
					s.R[u.rc] = v << (u.imm2 >> 8) >> (u.imm2 & 63)
				}
			case uLDQa:
				if v, err := s.Mem.ReadQ(u.imm); err == nil {
					s.R[u.ra] = v
				} else {
					fu, fault = u, err
					goto fail
				}
			case uSTQ:
				addr := s.R[u.rb] + u.imm
				if r := s.Mem.last; addr%8 == 0 && r != nil && r.Writable && addr-r.Base < uint64(len(r.data)) {
					binary.LittleEndian.PutUint64(r.data[addr-r.Base:], s.R[u.ra])
				} else if err := s.Mem.WriteQ(addr, s.R[u.ra]); err != nil {
					fu, fault = u, err
					goto fail
				}
			case uLDA:
				s.R[u.ra] = s.R[u.rb] + u.imm
			case uLDAc:
				s.R[u.ra] = u.imm
			case uEXTl:
				s.R[u.rc] = s.R[u.ra] << u.imm >> u.imm2
			case uSRL_ANDl:
				s.R[u.rc] = s.R[u.ra] >> u.imm & u.imm2
			case uADDQl:
				s.R[u.rc] = s.R[u.ra] + u.imm
			case uSUBQl:
				s.R[u.rc] = s.R[u.ra] - u.imm
			case uMULQl:
				s.R[u.rc] = s.R[u.ra] * u.imm
			case uANDl:
				s.R[u.rc] = s.R[u.ra] & u.imm
			case uBISl:
				s.R[u.rc] = s.R[u.ra] | u.imm
			case uXORl:
				s.R[u.rc] = s.R[u.ra] ^ u.imm
			case uSLLl:
				s.R[u.rc] = s.R[u.ra] << u.imm
			case uSRLl:
				s.R[u.rc] = s.R[u.ra] >> u.imm
			case uCMPEQl:
				s.R[u.rc] = b2i(s.R[u.ra] == u.imm)
			case uCMPULTl:
				s.R[u.rc] = b2i(s.R[u.ra] < u.imm)
			case uCMPULEl:
				s.R[u.rc] = b2i(s.R[u.ra] <= u.imm)
			case uADDQ:
				s.R[u.rc] = s.R[u.ra] + s.R[u.rb]
			case uSUBQ:
				s.R[u.rc] = s.R[u.ra] - s.R[u.rb]
			case uMULQ:
				s.R[u.rc] = s.R[u.ra] * s.R[u.rb]
			case uAND:
				s.R[u.rc] = s.R[u.ra] & s.R[u.rb]
			case uBIS:
				s.R[u.rc] = s.R[u.ra] | s.R[u.rb]
			case uXOR:
				s.R[u.rc] = s.R[u.ra] ^ s.R[u.rb]
			case uSLL:
				s.R[u.rc] = s.R[u.ra] << (s.R[u.rb] & 63)
			case uSRL:
				s.R[u.rc] = s.R[u.ra] >> (s.R[u.rb] & 63)
			case uCMPEQ:
				s.R[u.rc] = b2i(s.R[u.ra] == s.R[u.rb])
			case uCMPULT:
				s.R[u.rc] = b2i(s.R[u.ra] < s.R[u.rb])
			case uCMPULE:
				s.R[u.rc] = b2i(s.R[u.ra] <= s.R[u.rb])
			default: // uCall
				if err := u.fn(s); err != nil {
					fu, fault = u, err
					goto fail
				}
			}
		}
		steps += len(b.ops)
		cycles += b.bodyCost
		// The whole block is now guaranteed to retire (terminators
		// cannot fault and the fuel check covered them), so each exit
		// below makes exactly one sink call attributing body and
		// terminator at once — condBlock for conditional blocks (the
		// edge rides along), fullBlock for everything else.
		if b.ep == epCondCmp {
			// Fused compare-and-branch: evaluate the compare once as a
			// bool, store its value to the condition register, and
			// pick the pre-normalized edge — no separate terminator
			// dispatch, no branch-sense flip.
			cm := &b.cmp
			var t bool
			switch cm.kind {
			case uCMPEQl:
				t = s.R[cm.ra] == cm.imm
			case uCMPULTl:
				t = s.R[cm.ra] < cm.imm
			case uCMPULEl:
				t = s.R[cm.ra] <= cm.imm
			case uCMPEQ:
				t = s.R[cm.ra] == s.R[cm.rb]
			case uCMPULT:
				t = s.R[cm.ra] < s.R[cm.rb]
			default: // uCMPULE
				t = s.R[cm.ra] <= s.R[cm.rb]
			}
			s.R[cm.rc] = b2i(t)
			steps++
			// The branch-taken edge in program terms: the edges were
			// pre-normalized to the compare's truth value, so recover
			// takenness from the branch sense (condNE takes on true).
			sink.condBlock(bi, t == (b.condKind == condNE))
			if t {
				cycles += b.cTrue
				bi = b.tTrue
			} else {
				cycles += b.cFalse
				bi = b.tFalse
			}
			continue
		}
		var cv uint64
		if b.hasCmp {
			cm := &b.cmp
			var v uint64
			switch cm.kind {
			case uCMPEQl:
				v = b2i(s.R[cm.ra] == cm.imm)
			case uCMPULTl:
				v = b2i(s.R[cm.ra] < cm.imm)
			case uCMPULEl:
				v = b2i(s.R[cm.ra] <= cm.imm)
			case uCMPEQ:
				v = b2i(s.R[cm.ra] == s.R[cm.rb])
			case uCMPULT:
				v = b2i(s.R[cm.ra] < s.R[cm.rb])
			default: // uCMPULE
				v = b2i(s.R[cm.ra] <= s.R[cm.rb])
			}
			s.R[cm.rc] = v
			cv = v
		}
		switch b.kind {
		case blockFall:
			sink.fullBlock(bi)
			bi = b.next
		case blockJump:
			steps++
			cycles += b.costTaken
			sink.fullBlock(bi)
			bi = b.taken
		case blockCond:
			steps++
			var take bool
			if b.condFromCmp {
				// The condition register was just written by the folded
				// compare: branch on its value directly.
				if b.condKind == condNE {
					take = cv != 0
				} else {
					take = cv == 0
				}
			} else {
				switch b.condKind {
				case condEQ:
					take = s.R[b.condRa] == 0
				case condNE:
					take = s.R[b.condRa] != 0
				case condGE:
					take = int64(s.R[b.condRa]) >= 0
				default: // condLT
					take = int64(s.R[b.condRa]) < 0
				}
			}
			sink.condBlock(bi, take)
			if take {
				cycles += b.costTaken
				bi = b.taken
			} else {
				cycles += b.costNot
				bi = b.next
			}
		case blockRet:
			steps++
			cycles += b.costTaken
			sink.fullBlock(bi)
			s.PC = int(b.termPC)
			return Result{Ret: s.R[0], Steps: steps, Cycles: cycles}, nil
		case blockExit:
			sink.fullBlock(bi)
			s.PC = len(c.prog)
			return Result{Ret: s.R[0], Steps: steps, Cycles: cycles}, nil
		}
	}
fail:
	// A fused op faulted. The faulting op is always the first of its
	// fusion group, so the pre-group step/cycle prefixes recorded at
	// compile time give the exact interpreter-visible cursor: the
	// faulting instruction retires (one step) but contributes no
	// cycles — and, like the interpreter's, gets no profile
	// attribution; only the ops retired before the group do.
	pc := int(fu.pc)
	s.PC = pc
	steps += int(fu.stepsAt) + 1
	cycles += fu.costAt
	sink.partial(bi, fu.stepsAt)
	return Result{Steps: steps, Cycles: cycles}, execFault(pc, c.prog[pc], fault, mode)
}

// crunSlow executes one block with the interpreter's per-instruction
// fuel discipline, over the unfused op list (fuel may run out between
// the ops of a fused pair, and the state at that point must match the
// interpreter's exactly). It returns either the updated execution
// cursor (done=false) or the program's final Result (done=true).
// Profile attribution here is per-op (sink.note), mirroring the
// interpreter: an op is noted only after it retires successfully, so
// a faulting op and a fuel-exhausted cursor attribute nothing.
func crunSlow[S blockSink](c *Compiled, s *State, b *block, mode Mode, fuel, steps int, cycles int64, sink S) (int, int64, int, Result, bool, error) {
	for i := range b.ops {
		if steps >= fuel {
			s.PC = int(b.pcs[i])
			return 0, 0, 0, Result{Steps: steps, Cycles: cycles}, true, ErrFuel
		}
		steps++
		if err := b.exec1(s, i); err != nil {
			pc := int(b.pcs[i])
			s.PC = pc
			return 0, 0, 0, Result{Steps: steps, Cycles: cycles}, true, execFault(pc, c.prog[pc], err, mode)
		}
		cycles += b.costs[i]
		sink.note(b.pcs[i], b.costs[i])
	}
	switch b.kind {
	case blockFall:
		return steps, cycles, b.next, Result{}, false, nil
	case blockJump:
		if steps >= fuel {
			s.PC = int(b.termPC)
			return 0, 0, 0, Result{Steps: steps, Cycles: cycles}, true, ErrFuel
		}
		steps++
		cycles += b.costTaken
		sink.note(b.termPC, b.costTaken)
		return steps, cycles, b.taken, Result{}, false, nil
	case blockCond:
		if steps >= fuel {
			s.PC = int(b.termPC)
			return 0, 0, 0, Result{Steps: steps, Cycles: cycles}, true, ErrFuel
		}
		steps++
		var take bool
		switch b.condKind {
		case condEQ:
			take = s.R[b.condRa] == 0
		case condNE:
			take = s.R[b.condRa] != 0
		case condGE:
			take = int64(s.R[b.condRa]) >= 0
		default: // condLT
			take = int64(s.R[b.condRa]) < 0
		}
		if take {
			cycles += b.costTaken
			sink.note(b.termPC, b.costTaken)
			return steps, cycles, b.taken, Result{}, false, nil
		}
		cycles += b.costNot
		sink.note(b.termPC, b.costNot)
		return steps, cycles, b.next, Result{}, false, nil
	case blockRet:
		if steps >= fuel {
			s.PC = int(b.termPC)
			return 0, 0, 0, Result{Steps: steps, Cycles: cycles}, true, ErrFuel
		}
		steps++
		cycles += b.costTaken
		sink.note(b.termPC, b.costTaken)
		s.PC = int(b.termPC)
		return 0, 0, 0, Result{Ret: s.R[0], Steps: steps, Cycles: cycles}, true, nil
	default: // blockExit
		s.PC = len(c.prog)
		return 0, 0, 0, Result{Ret: s.R[0], Steps: steps, Cycles: cycles}, true, nil
	}
}

// knownOp reports whether the interpreter has a transition rule for
// op.
func knownOp(op alpha.Op) bool {
	switch op {
	case alpha.LDQ, alpha.STQ, alpha.LDA,
		alpha.ADDQ, alpha.SUBQ, alpha.MULQ, alpha.AND, alpha.BIS, alpha.XOR,
		alpha.SLL, alpha.SRL, alpha.CMPEQ, alpha.CMPULT, alpha.CMPULE,
		alpha.BEQ, alpha.BNE, alpha.BGE, alpha.BLT, alpha.BR, alpha.RET:
		return true
	}
	return false
}

// compileStraight pre-decodes one non-control instruction into a
// micro-op. Common shapes get dedicated kinds (operands resolved to
// register-file indexes or constants, no HasLit test, no r31 mapping —
// Validate guarantees destinations are never r31, so direct R-file
// indexing is safe); the rare r31-reading shapes become uCall with a
// generic closure that mirrors the interpreter's Reg path.
func compileStraight(ins alpha.Instr) (uop, error) {
	switch ins.Op {
	case alpha.LDQ:
		disp := uint64(int64(ins.Disp))
		if ins.Rb == alpha.RegZero {
			return uop{kind: uLDQa, ra: uint8(ins.Ra), imm: disp}, nil
		}
		return uop{kind: uLDQ, ra: uint8(ins.Ra), rb: uint8(ins.Rb), imm: disp}, nil

	case alpha.STQ:
		disp := uint64(int64(ins.Disp))
		if ins.Rb == alpha.RegZero || ins.Ra == alpha.RegZero {
			ins := ins
			return uop{kind: uCall, fn: func(s *State) error {
				return s.Mem.WriteQ(s.Reg(ins.Rb)+disp, s.Reg(ins.Ra))
			}}, nil
		}
		return uop{kind: uSTQ, ra: uint8(ins.Ra), rb: uint8(ins.Rb), imm: disp}, nil

	case alpha.LDA:
		disp := uint64(int64(ins.Disp))
		if ins.Rb == alpha.RegZero {
			// The assembler's constant materialization: LDA rd, c(r31).
			return uop{kind: uLDAc, ra: uint8(ins.Ra), imm: disp}, nil
		}
		return uop{kind: uLDA, ra: uint8(ins.Ra), rb: uint8(ins.Rb), imm: disp}, nil

	case alpha.ADDQ, alpha.SUBQ, alpha.MULQ, alpha.AND, alpha.BIS, alpha.XOR,
		alpha.SLL, alpha.SRL, alpha.CMPEQ, alpha.CMPULT, alpha.CMPULE:
		return compileOperate(ins), nil
	}
	return uop{}, fmt.Errorf("machine: compile: unexpected straight-line op %v", ins.Op)
}

// operateKinds maps an operate opcode to its (literal, register)
// micro-op kinds.
var operateKinds = map[alpha.Op][2]uint8{
	alpha.ADDQ:   {uADDQl, uADDQ},
	alpha.SUBQ:   {uSUBQl, uSUBQ},
	alpha.MULQ:   {uMULQl, uMULQ},
	alpha.AND:    {uANDl, uAND},
	alpha.BIS:    {uBISl, uBIS},
	alpha.XOR:    {uXORl, uXOR},
	alpha.SLL:    {uSLLl, uSLL},
	alpha.SRL:    {uSRLl, uSRL},
	alpha.CMPEQ:  {uCMPEQl, uCMPEQ},
	alpha.CMPULT: {uCMPULTl, uCMPULT},
	alpha.CMPULE: {uCMPULEl, uCMPULE},
}

// compileOperate builds the micro-op for an operate-format
// instruction.
func compileOperate(ins alpha.Instr) uop {
	if ins.Ra == alpha.RegZero && (ins.HasLit || ins.Rb == alpha.RegZero) {
		// All sources constant (the `BIS r31, 0, rd` clear idiom and
		// friends): the result is a compile-time constant store.
		var b uint64
		if ins.HasLit {
			b = uint64(ins.Lit)
		}
		return uop{kind: uLDAc, ra: uint8(ins.Rc), imm: aluOp(ins.Op, 0, b)}
	}
	if ins.Ra == alpha.RegZero || (!ins.HasLit && ins.Rb == alpha.RegZero) {
		// An r31 source is rare enough that a generic closure (still
		// pre-decoded to one instruction, one aluOp call) is fine.
		ins := ins
		return uop{kind: uCall, fn: func(s *State) error {
			a := s.Reg(ins.Ra)
			var b uint64
			if ins.HasLit {
				b = uint64(ins.Lit)
			} else {
				b = s.Reg(ins.Rb)
			}
			s.R[ins.Rc] = aluOp(ins.Op, a, b)
			return nil
		}}
	}
	kinds := operateKinds[ins.Op]
	if ins.HasLit {
		imm := uint64(ins.Lit)
		if ins.Op == alpha.SLL || ins.Op == alpha.SRL {
			imm &= 63 // pre-mask the shift amount, as the ALU would
		}
		return uop{kind: kinds[0], ra: uint8(ins.Ra), rc: uint8(ins.Rc), imm: imm}
	}
	return uop{kind: kinds[1], ra: uint8(ins.Ra), rb: uint8(ins.Rb), rc: uint8(ins.Rc)}
}

func b2i(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
