package tlb

import (
	"math/rand"
	"testing"

	"morrigan/internal/arch"
)

// naiveEntry is one translation held by the oracle.
type naiveEntry struct {
	tid arch.ThreadID
	vpn arch.VPN
	pfn arch.PFN
}

// naiveTLB is a deliberately simple LRU oracle for TLB: each set is a slice
// of entries ordered from least to most recently used, so the victim is
// always element zero. It shares nothing with TLB's layout.
type naiveTLB struct {
	ways             int
	sets             [][]naiveEntry
	accesses, misses uint64
}

func newNaiveTLB(sets, ways int) *naiveTLB {
	return &naiveTLB{ways: ways, sets: make([][]naiveEntry, sets)}
}

// find returns vpn's set and the entry's position in it, or -1.
func (n *naiveTLB) find(tid arch.ThreadID, vpn arch.VPN) (set, pos int) {
	set = int(uint64(vpn) % uint64(len(n.sets)))
	for i, e := range n.sets[set] {
		if e.tid == tid && e.vpn == vpn {
			return set, i
		}
	}
	return set, -1
}

// touch moves the entry at pos to the most recently used end of its set.
func (n *naiveTLB) touch(set, pos int) {
	s := n.sets[set]
	e := s[pos]
	n.sets[set] = append(append(s[:pos:pos], s[pos+1:]...), e)
}

func (n *naiveTLB) lookup(tid arch.ThreadID, vpn arch.VPN) (arch.PFN, bool) {
	n.accesses++
	set, pos := n.find(tid, vpn)
	if pos < 0 {
		n.misses++
		return 0, false
	}
	n.touch(set, pos)
	return n.sets[set][len(n.sets[set])-1].pfn, true
}

func (n *naiveTLB) peek(tid arch.ThreadID, vpn arch.VPN) (arch.PFN, bool) {
	set, pos := n.find(tid, vpn)
	if pos < 0 {
		return 0, false
	}
	return n.sets[set][pos].pfn, true
}

func (n *naiveTLB) insert(tid arch.ThreadID, vpn arch.VPN, pfn arch.PFN) {
	set, pos := n.find(tid, vpn)
	if pos >= 0 {
		n.sets[set][pos].pfn = pfn
		n.touch(set, pos)
		return
	}
	if len(n.sets[set]) == n.ways {
		n.sets[set] = n.sets[set][1:]
	}
	n.sets[set] = append(n.sets[set], naiveEntry{tid, vpn, pfn})
}

func (n *naiveTLB) flush() {
	for i := range n.sets {
		n.sets[i] = nil
	}
}

func (n *naiveTLB) size() int {
	total := 0
	for _, s := range n.sets {
		total += len(s)
	}
	return total
}

// fuzzGeometries are (sets, ways) pairs: powers of two, the Table 1 STLB's
// 256x6, and non-power-of-two set counts, including the 320-set iso-storage
// STLB of Figure 18.
var fuzzGeometries = [][2]int{{1, 1}, {1, 8}, {2, 2}, {3, 2}, {3, 6}, {4, 8}, {64, 1}, {256, 6}, {320, 6}}

// FuzzTLBLRU drives one TLB and the naive oracle with the same stream of
// Lookup, Peek, Contains, Insert (including re-inserts that overwrite the
// PFN) and Flush calls from four thread ids, comparing every result and the
// counters after each operation, and membership with PFNs over every
// translation the stream touched.
func FuzzTLBLRU(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for g := range fuzzGeometries {
		ops := make([]byte, 4*600)
		rng.Read(ops)
		f.Add(uint8(g), ops)
	}
	f.Fuzz(func(t *testing.T, geomSel uint8, ops []byte) {
		g := fuzzGeometries[int(geomSel)%len(fuzzGeometries)]
		sets, ways := g[0], g[1]
		tl, n := New("fuzz", sets*ways, ways, 1), newNaiveTLB(sets, ways)
		domain := uint64(2 * sets * ways)
		type tv struct {
			tid arch.ThreadID
			vpn arch.VPN
		}
		touched := map[tv]bool{}
		for i := 0; i+3 < len(ops); i += 4 {
			op := ops[i] % 16
			tid := arch.ThreadID(ops[i+1] & 3)
			vpn := arch.VPN((uint64(ops[i+2])<<8 | uint64(ops[i+3])) % domain)
			pfn := arch.PFN(ops[i+1]>>2) + 1
			touched[tv{tid, vpn}] = true
			switch {
			case op < 5:
				gp, gok := tl.Lookup(tid, vpn)
				wp, wok := n.lookup(tid, vpn)
				if gp != wp || gok != wok {
					t.Fatalf("op %d: Lookup(%d, %d) = (%d, %v), oracle (%d, %v)", i/4, tid, vpn, gp, gok, wp, wok)
				}
			case op < 8:
				gp, gok := tl.Peek(tid, vpn)
				wp, wok := n.peek(tid, vpn)
				if gp != wp || gok != wok {
					t.Fatalf("op %d: Peek(%d, %d) = (%d, %v), oracle (%d, %v)", i/4, tid, vpn, gp, gok, wp, wok)
				}
			case op < 10:
				_, want := n.peek(tid, vpn)
				if got := tl.Contains(tid, vpn); got != want {
					t.Fatalf("op %d: Contains(%d, %d) = %v, oracle %v", i/4, tid, vpn, got, want)
				}
			case op < 15:
				tl.Insert(tid, vpn, pfn)
				n.insert(tid, vpn, pfn)
			default:
				tl.Flush()
				n.flush()
			}
			if tl.Accesses() != n.accesses || tl.Misses() != n.misses {
				t.Fatalf("op %d: accesses/misses %d/%d, oracle %d/%d", i/4, tl.Accesses(), tl.Misses(), n.accesses, n.misses)
			}
			resident := 0
			for k := range touched {
				gp, gok := tl.Peek(k.tid, k.vpn)
				wp, wok := n.peek(k.tid, k.vpn)
				if gp != wp || gok != wok {
					t.Fatalf("op %d: (%d, %d) resident as (%d, %v), oracle (%d, %v)", i/4, k.tid, k.vpn, gp, gok, wp, wok)
				}
				if gok {
					resident++
				}
			}
			if resident != n.size() {
				t.Fatalf("op %d: %d touched translations resident, oracle holds %d", i/4, resident, n.size())
			}
		}
	})
}
