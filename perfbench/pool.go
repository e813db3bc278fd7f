package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"strings"

	pcc "repro"
	"repro/internal/filters"
	"repro/internal/pktgen"
	"repro/internal/policy"
)

// match holds the constants one paper-filter variant matches on. Kind is
// the paper filter (1..4) whose code the variant shares; only the fields
// that kind compares are set, so equal matches mean equal binaries.
type match struct {
	Kind  filters.Filter
	Ether uint16  // Filter 1: accepted ethertype (low byte zero)
	NetA  [3]byte // Filter 2: source network; Filter 3: first network
	NetB  [3]byte // Filter 3: second network
	Port  uint16  // Filter 4: TCP destination port
}

// paperMatch is the constants of the paper's own filters.
func paperMatch(f filters.Filter) match {
	switch f {
	case filters.Filter1:
		return match{Kind: f, Ether: pktgen.EtherTypeIP}
	case filters.Filter2:
		return match{Kind: f, NetA: pktgen.NetCMU}
	case filters.Filter3:
		return match{Kind: f, NetA: pktgen.NetCMU, NetB: pktgen.NetRemote}
	}
	return match{Kind: f, Port: pktgen.FilterPort}
}

// poolEntry is one certified binary of the pool.
type poolEntry struct {
	M      match
	Binary []byte
}

// netLE returns the MOVI immediate and BIS literal that build network n
// as the little-endian 24-bit value the filters compare against.
func netLE(n [3]byte) (movi uint16, lit byte) {
	return uint16(n[2])<<8 | uint16(n[1]), n[0]
}

// replaceOnce substitutes old by new in src and fails unless old occurs
// exactly once, so a change to the paper sources breaks set-up loudly.
func replaceOnce(src, old, new string) (string, error) {
	if strings.Count(src, old) != 1 {
		return "", fmt.Errorf("variant: %q occurs %d times in filter source", old, strings.Count(src, old))
	}
	return strings.Replace(src, old, new, 1), nil
}

// source renders a variant's assembly by rewriting the match constants of
// the paper filter it derives from.
func (m match) source() (string, error) {
	src := filters.Source(m.Kind)
	type sub struct{ old, new string }
	var subs []sub
	switch m.Kind {
	case filters.Filter1:
		subs = []sub{{"CMPEQ  r4, 8, r0", fmt.Sprintf("CMPEQ  r4, %d, r0", m.Ether>>8)}}
	case filters.Filter2:
		mv, lit := netLE(m.NetA)
		subs = []sub{
			{"MOVI   0x2A02, r5", fmt.Sprintf("MOVI   0x%04X, r5", mv)},
			{"BIS    r5, 0x80, r5", fmt.Sprintf("BIS    r5, 0x%02X, r5", lit)},
		}
	case filters.Filter3:
		mva, lita := netLE(m.NetA)
		mvb, litb := netLE(m.NetB)
		subs = []sub{
			{"MOVI   0x2A02, r6", fmt.Sprintf("MOVI   0x%04X, r6", mva)},
			{"BIS    r6, 0x80, r6", fmt.Sprintf("BIS    r6, 0x%02X, r6", lita)},
			{"MOVI   0x210C, r3", fmt.Sprintf("MOVI   0x%04X, r3", mvb)},
			{"BIS    r3, 0xC0, r3", fmt.Sprintf("BIS    r3, 0x%02X, r3", litb)},
		}
	case filters.Filter4:
		subs = []sub{{"MOVI   0x5000, r5", fmt.Sprintf("MOVI   0x%04X, r5", m.Port>>8|(m.Port&0xff)<<8)}}
	}
	var err error
	for _, s := range subs {
		if src, err = replaceOnce(src, s.old, s.new); err != nil {
			return "", err
		}
	}
	return src, nil
}

// accepts is the benchmark's own oracle for a variant: the Go reference
// semantics of internal/filters (BPF semantics, out-of-range rejects)
// with the match constants as parameters.
func (m match) accepts(p []byte) bool {
	be16 := func(off int) (uint16, bool) {
		if off+2 > len(p) {
			return 0, false
		}
		return binary.BigEndian.Uint16(p[off:]), true
	}
	net := func(off int) ([3]byte, bool) {
		if off+3 > len(p) {
			return [3]byte{}, false
		}
		return [3]byte{p[off], p[off+1], p[off+2]}, true
	}
	et, ok := be16(12)
	if !ok {
		return false
	}
	switch m.Kind {
	case filters.Filter1:
		return et == m.Ether
	case filters.Filter2:
		src, ok := net(26)
		return et == pktgen.EtherTypeIP && ok && src == m.NetA
	case filters.Filter3:
		var so, do int
		switch et {
		case pktgen.EtherTypeIP:
			so, do = 26, 30
		case pktgen.EtherTypeARP:
			so, do = 28, 38
		default:
			return false
		}
		src, ok1 := net(so)
		dst, ok2 := net(do)
		return ok1 && ok2 && (src == m.NetA && dst == m.NetB || src == m.NetB && dst == m.NetA)
	case filters.Filter4:
		if et != pktgen.EtherTypeIP || len(p) < 24 || p[23] != pktgen.ProtoTCP {
			return false
		}
		port, ok := be16(14 + 4*int(p[14]&0x0f) + 2)
		return ok && port == m.Port
	}
	return false
}

// variants draws perKind distinct match-constant sets for each paper
// filter; variant 0 of each kind is the paper filter itself. Candidates
// keep every constant inside the immediate ranges the sources use
// (8-bit operate literals, 16-bit signed MOVI).
func variants(seed uint64, perKind int) [][]match {
	r := newRNG(seed, 1)
	net := func() [3]byte {
		return [3]byte{byte(r.intn(256)), byte(r.intn(256)), byte(r.intn(128))}
	}
	out := make([][]match, 4)
	for ki, f := range filters.All {
		seen := map[match]bool{}
		add := func(m match) {
			if !seen[m] {
				seen[m] = true
				out[ki] = append(out[ki], m)
			}
		}
		add(paperMatch(f))
		// The trace's other common values come first, so low-numbered
		// variants match real traffic.
		switch f {
		case filters.Filter2:
			add(match{Kind: f, NetA: pktgen.NetRemote})
			add(match{Kind: f, NetA: pktgen.NetOther})
		case filters.Filter3:
			add(match{Kind: f, NetA: pktgen.NetCMU, NetB: pktgen.NetOther})
			add(match{Kind: f, NetA: pktgen.NetOther, NetB: pktgen.NetRemote})
		case filters.Filter4:
			for _, p := range []uint16{23, 25, 119, 513, 6000} {
				add(match{Kind: f, Port: p})
			}
		}
		for len(out[ki]) < perKind {
			m := match{Kind: f}
			switch f {
			case filters.Filter1:
				m.Ether = uint16(1+r.intn(255)) << 8
			case filters.Filter2:
				m.NetA = net()
			case filters.Filter3:
				m.NetA, m.NetB = net(), net()
			case filters.Filter4:
				m.Port = uint16(r.intn(256))<<8 | uint16(r.intn(128))
			}
			add(m)
		}
		out[ki] = out[ki][:perKind]
	}
	return out
}

// retSource is the ledger filter: it rejects every packet at the least
// possible cost, so its dispatch cost is the kernel's per-run overhead.
const retSource = "CLR r0\nRET\n"

// pool is the benchmark's certified binary set: 4*perKind variants in
// kind-interleaved order (entry i is kind i%4, variant i/4), plus the
// ledger filter.
type pool struct {
	Entries []poolEntry
	Ret     []byte
}

func (p *pool) paper(f filters.Filter) poolEntry { return p.Entries[int(f)-1] }

// sum fingerprints the pool's binaries: the seed alone must determine
// them, so every process of a run must build the same pool.
func (p *pool) sum() [32]byte {
	h := sha256.New()
	for _, e := range p.Entries {
		h.Write(e.Binary)
	}
	h.Write(p.Ret)
	var s [32]byte
	h.Sum(s[:0])
	return s
}

// buildPool certifies every variant. The producer side (prover) runs
// only here, in set-up.
func buildPool(seed uint64, perKind int, pol *policy.Policy) (*pool, error) {
	vs := variants(seed, perKind)
	p := &pool{}
	for v := 0; v < perKind; v++ {
		for ki := range filters.All {
			m := vs[ki][v]
			src, err := m.source()
			if err != nil {
				return nil, err
			}
			if v == 0 && src != filters.Source(m.Kind) {
				return nil, fmt.Errorf("pool: rendered %v differs from the paper source", m.Kind)
			}
			cert, err := pcc.Certify(src, pol, nil)
			if err != nil {
				return nil, fmt.Errorf("pool: certify %v variant %d: %w", m.Kind, v, err)
			}
			p.Entries = append(p.Entries, poolEntry{M: m, Binary: cert.Binary})
		}
	}
	cert, err := pcc.Certify(retSource, pol, nil)
	if err != nil {
		return nil, fmt.Errorf("pool: certify ledger filter: %w", err)
	}
	p.Ret = cert.Binary
	return p, nil
}
