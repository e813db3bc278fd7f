// Demotion on dispatch fault.
//
// The consumer trusts three things: its own VC generator, its LF
// checker, and the dispatch precondition it sets up. A validated
// filter cannot fault when that precondition holds, so a dispatch
// fault is the consumer's: a miscompile or a kernel bug, never the
// producer's. Of the code a filter runs on, the threaded-code
// translation is the part the proof does not cover (the interpreter is
// the reference semantics the proof is about), so the minimum the
// trust model justifies is this: a filter whose compiled form faults
// is demoted to the interpreter, and the fault is audited as a
// kernel-integrity event. The producer is not blamed: the filter stays
// installed and its owner is not quarantined.
//
// Demotion is sticky until an operator acts: a reinstall of the filter
// or SetBackend(BackendCompiled), which recompiles every filter that
// has no compiled form. A fault of an already-interpreted filter still
// aborts its delivery but changes nothing: there is nothing left to
// demote. The fault-free path pays nothing for any of this.
package kernel

import (
	"repro/internal/machine"
	"repro/internal/telemetry"
)

// demoteFault is the dispatch-path hook for a fault in a slot that ran
// compiled code c. It unpublishes owner's compiled form (copy-on-write;
// in-flight deliveries finish on the snapshot they pinned) and, only
// when this call is the one that did so, records the demotion once:
// a backend_fallback flight event, a demote audit record, and the
// demotions counter. Concurrent faults of the same form demote it
// once. A slot that no longer holds c (already demoted, or reinstalled
// with another form) is left alone. Takes k.mu; called without it.
func (k *Kernel) demoteFault(owner string, c *machine.Compiled, fault error, eid uint64) {
	if !k.demoteCompiled(owner, c) {
		return
	}
	k.flight(telemetry.FlightBackendFallback, owner, "compiled form demoted; dispatching interpreted", eid)
	k.audit.Load().demote(owner, fault, eid)
	k.tel.Load().demoted()
}

// demoteCompiled unpublishes owner's compiled form if it is still c,
// and reports whether it did.
func (k *Kernel) demoteCompiled(owner string, c *machine.Compiled) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	t := k.table.Load()
	i, ok := t.find(owner)
	if !ok || t.slots[i].c != c {
		return false
	}
	f := t.slots[i].f
	nf := *f
	nf.compiled = nil
	nt := t.clone()
	nt.slots[i] = makeSlot(owner, &nf)
	k.publishLocked(nt, f)
	return true
}
