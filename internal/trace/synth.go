package trace

import (
	"fmt"
	"slices"
	"sort"

	"morrigan/internal/arch"
)

// Base virtual page numbers for the synthetic address space layout. Code
// lives where an ELF text segment typically starts; data far above it so the
// two never collide and are trivially distinguishable in analysis.
const (
	CodeBaseVPN arch.VPN = 0x0400    // 4 MB
	DataBaseVPN arch.VPN = 0x100000  // 4 GB
	StackVPN    arch.VPN = 0x7FF0000 // stack-ish region for store traffic
)

// ServerParams configures the synthetic server-workload generator.
//
// The generator models server code the way the paper characterises it
// (Section 3.3): the instruction footprint is organised into routines —
// multi-page call chains (request handlers, library paths) whose pages are
// scattered across the binary and executed in a repeatable order whenever
// the routine is invoked. Routine invocation popularity is Zipf-skewed, so a
// modest number of pages produces most of the iSTLB misses (Finding 2);
// cold routines miss in repeatable page sequences, giving each page a small
// set of likely successors (Finding 3); and a configurable fraction of
// intra-routine steps lands near the previous page, producing the limited
// small-delta locality of Finding 1.
type ServerParams struct {
	// Seed makes the workload deterministic.
	Seed int64
	// CodePages is the instruction footprint in 4 KB pages.
	CodePages int
	// DataPages is the data footprint in 4 KB pages.
	DataPages int
	// HotFrac and WarmFrac partition the routines by invocation tier.
	// Hot routines are invoked so often that their pages stay resident in
	// the STLB; the warm band recurs with reuse distances beyond STLB
	// reach, producing the recurring miss skew of Finding 2 (a modest
	// number of pages causes most iSTLB misses); the remaining cold tail
	// is invoked rarely. PHot and PWarm are the probabilities that a
	// routine call targets the hot and warm tiers (cold gets the rest).
	HotFrac, WarmFrac float64
	PHot, PWarm       float64
	// RoutineLenMin and RoutineLenMax bound the number of pages per
	// routine (the depth of a call chain).
	RoutineLenMin, RoutineLenMax int
	// RunLenMin and RunLenMax bound how many sequential instructions
	// execute inside a page per visit before control transfers away.
	RunLenMin, RunLenMax int
	// EntryPoints is the number of distinct function entry offsets per page.
	EntryPoints int
	// SeqFrac is the probability that the next page of a routine is laid
	// out at exactly the previous page + 1 (a sequential fall-through the
	// paper's SP/SDP component captures).
	SeqFrac float64
	// SmallDeltaFrac is the probability that the next page of a routine is
	// laid out within +/-10 pages of the previous one (Finding 1).
	SmallDeltaFrac float64
	// BranchSkipFrac is the probability that a within-routine step skips
	// the next page (a not-taken branch path), giving interior pages more
	// than one dynamic successor (Figure 7's fan-out).
	BranchSkipFrac float64
	// SuccWeights are the relative weights of a routine having exactly 1,
	// exactly 2, 3-4, 5-8, or 9-16 successor routines.
	SuccWeights [5]float64
	// RandomCallFrac is the probability that a routine-end transfer goes
	// to a uniformly random routine instead of a learned successor (the
	// ~17% less-frequent-successor mass of Figure 8).
	RandomCallFrac float64
	// LoadFrac and StoreFrac are the per-instruction probabilities of a
	// memory read and write.
	LoadFrac, StoreFrac float64
	// DataZipfS shapes data-page popularity.
	DataZipfS float64
	// DataStreamFrac is the fraction of loads that stream sequentially
	// (line by line) through the data footprint rather than hitting the
	// hot set.
	DataStreamFrac float64
	// PhaseLen is the number of instructions per execution phase; on each
	// phase boundary part of the routine popularity mapping is reshuffled
	// and the affected routines' successor edges are rebuilt. Zero
	// disables phases.
	PhaseLen uint64
	// PhaseShuffleFrac is the fraction of the popularity permutation
	// reshuffled at each phase boundary.
	PhaseShuffleFrac float64
}

// Validate reports whether the parameters are usable.
func (p *ServerParams) Validate() error {
	if p.CodePages < 4 {
		return fmt.Errorf("trace: CodePages = %d, need >= 4", p.CodePages)
	}
	if p.DataPages < 1 {
		return fmt.Errorf("trace: DataPages = %d, need >= 1", p.DataPages)
	}
	if p.HotFrac <= 0 || p.WarmFrac <= 0 || p.HotFrac+p.WarmFrac >= 1 {
		return fmt.Errorf("trace: tier fractions hot=%v warm=%v invalid", p.HotFrac, p.WarmFrac)
	}
	if p.PHot < 0 || p.PWarm < 0 || p.PHot+p.PWarm > 1 {
		return fmt.Errorf("trace: tier probabilities hot=%v warm=%v invalid", p.PHot, p.PWarm)
	}
	if p.RoutineLenMin < 1 || p.RoutineLenMax < p.RoutineLenMin {
		return fmt.Errorf("trace: routine length bounds [%d,%d] invalid", p.RoutineLenMin, p.RoutineLenMax)
	}
	if p.RoutineLenMin > p.CodePages {
		return fmt.Errorf("trace: RoutineLenMin = %d exceeds CodePages", p.RoutineLenMin)
	}
	if p.RunLenMin < 1 || p.RunLenMax < p.RunLenMin {
		return fmt.Errorf("trace: run length bounds [%d,%d] invalid", p.RunLenMin, p.RunLenMax)
	}
	if p.RunLenMax*4 > arch.PageSize {
		return fmt.Errorf("trace: RunLenMax = %d does not fit in a page", p.RunLenMax)
	}
	if p.EntryPoints < 1 {
		return fmt.Errorf("trace: EntryPoints = %d, need >= 1", p.EntryPoints)
	}
	return nil
}

// zipfS returns the data-page Zipf exponent the generator uses: DataZipfS,
// or 1.2 when that is at most 1 (rand.Zipf needs an exponent above 1).
func (p *ServerParams) zipfS() float64 {
	if p.DataZipfS <= 1 {
		return 1.2
	}
	return p.DataZipfS
}

// edge is a successor of a routine in the call graph.
type edge struct {
	target int     // routine index
	cum    float64 // cumulative probability within the edge list
}

// Generator is an infinite synthetic instruction stream; it implements
// Reader and never returns io.EOF.
//
// Every random choice is drawn from one math/rand stream seeded with
// Params().Seed, through rngSource and zipfSampler, which reproduce
// rand.Rand and rand.Zipf value for value; the records are therefore a fixed
// function of the parameters (testdata/stream_golden.json pins them).
type Generator struct {
	p   ServerParams
	rng rngSource
	dz  zipfSampler // samples popularity ranks for data pages

	nHot, nWarm int // tier sizes, in routines

	pages  []int // every routine's ordered page list, routine after routine
	rstart []int // routine r's pages are pages[rstart[r]:rstart[r+1]]
	redges [][]edge
	perm   []int    // popularity rank -> routine index
	entry  []uint16 // page p's entry offsets (bytes, below the page size) are entry[p*EntryPoints:][:EntryPoints]

	curR    int // current routine
	curIdx  int // position within the routine's page list
	curPage int
	curOff  uint64
	runLeft int

	dataPtr   int    // streaming data cursor (page index)
	streamOff uint64 // streaming cursor's offset within the page
	emitted   uint64
	nextPhase uint64
}

var _ Reader = (*Generator)(nil)

// NewServerGenerator builds a generator for the given parameters. It panics
// if the parameters are invalid; use Validate to check first.
func NewServerGenerator(p ServerParams) *Generator {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	g := &Generator{p: p}
	g.rng.Seed(p.Seed)
	g.dz.init(&g.rng, p.zipfS(), uint64(p.DataPages-1))
	g.buildRoutines()
	nr := g.numRoutines()
	g.nHot = int(float64(nr) * p.HotFrac)
	g.nWarm = int(float64(nr) * p.WarmFrac)
	if g.nHot < 1 {
		g.nHot = 1
	}
	if g.nWarm < 1 {
		g.nWarm = 1
	}
	if g.nHot+g.nWarm >= nr {
		g.nWarm = nr - g.nHot - 1
		if g.nWarm < 1 {
			g.nHot, g.nWarm = 1, 1
		}
	}
	g.perm = g.rng.Perm(nr)
	g.redges = make([][]edge, nr)
	for r := range g.redges {
		g.redges[r] = g.buildEdges(r)
	}
	g.entry = make([]uint16, p.CodePages*p.EntryPoints)
	if limit := arch.PageSize - uint64(p.RunLenMax*4); limit > 0 {
		for i := range g.entry {
			g.entry[i] = uint16(g.rng.Int63n(int64(limit)+1)) &^ 3
		}
	}
	g.enterRoutine(g.perm[0])
	if p.PhaseLen > 0 {
		g.nextPhase = p.PhaseLen
	}
	return g
}

// buildRoutines partitions the code pages into routines. The first page of
// a routine is placed anywhere in the binary; each subsequent page is laid
// out sequentially (SeqFrac), nearby (SmallDeltaFrac) or anywhere else,
// reproducing the paper's measured delta distribution on the miss stream.
func (g *Generator) buildRoutines() {
	unassigned := g.rng.Perm(g.p.CodePages)
	taken := make([]bool, g.p.CodePages)
	pos := 0
	nextFree := func() int {
		for pos < len(unassigned) && taken[unassigned[pos]] {
			pos++
		}
		if pos >= len(unassigned) {
			return -1
		}
		pg := unassigned[pos]
		return pg
	}
	g.pages = make([]int, 0, g.p.CodePages)
	g.rstart = []int{0}
	for {
		first := nextFree()
		if first < 0 {
			break
		}
		taken[first] = true
		want := g.p.RoutineLenMin
		if g.p.RoutineLenMax > g.p.RoutineLenMin {
			want += g.rng.Intn(g.p.RoutineLenMax - g.p.RoutineLenMin + 1)
		}
		g.pages = append(g.pages, first)
		prev := first
		for n := 1; n < want; n++ {
			var cand int
			x := g.rng.Float64()
			switch {
			case x < g.p.SeqFrac:
				cand = prev + 1
			case x < g.p.SeqFrac+g.p.SmallDeltaFrac:
				d := 2 + g.rng.Intn(9)
				if g.rng.Intn(2) == 0 {
					d = -d
				}
				cand = prev + d
			default:
				cand = g.rng.Intn(g.p.CodePages)
			}
			if cand < 0 || cand >= g.p.CodePages || taken[cand] {
				cand = nextFree()
				if cand < 0 {
					break
				}
			}
			taken[cand] = true
			g.pages = append(g.pages, cand)
			prev = cand
		}
		g.rstart = append(g.rstart, len(g.pages))
	}
}

// numRoutines returns the number of routines.
func (g *Generator) numRoutines() int { return len(g.rstart) - 1 }

// routine returns routine r's ordered page list.
func (g *Generator) routine(r int) []int { return g.pages[g.rstart[r]:g.rstart[r+1]] }

// routineBySample draws a routine index by tier: hot routines with
// probability PHot (STLB-resident working set), the warm band with
// probability PWarm (the recurring-miss band), and the cold tail otherwise.
// Within a tier, members near the front are mildly favoured so the miss
// distribution has the paper's skewed head rather than a flat plateau.
func (g *Generator) routineBySample() int {
	u := g.rng.Float64()
	var lo, n int
	switch {
	case u < g.p.PHot:
		lo, n = 0, g.nHot
	case u < g.p.PHot+g.p.PWarm:
		lo, n = g.nHot, g.nWarm
	default:
		lo, n = g.nHot+g.nWarm, g.numRoutines()-g.nHot-g.nWarm
	}
	if n <= 0 {
		return g.perm[0]
	}
	// Power-law bias toward the front of the tier, giving the strongly
	// concave page-frequency curve of Figure 6 (a few tens of pages carry
	// a large share of the misses, a few hundred carry 90%).
	u = g.rng.Float64()
	idx := int(u * u * u * float64(n))
	if idx >= n {
		idx = n - 1
	}
	return g.perm[lo+idx]
}

// succProbWeight returns the relative probability weight of the i-th most
// likely successor, shaped to match Figure 8's measured 51/21/11/17 split.
func succProbWeight(i int) float64 {
	switch i {
	case 0:
		return 0.51
	case 1:
		return 0.21
	case 2:
		return 0.11
	default:
		// Remaining mass decays geometrically across the tail.
		w := 0.085
		for j := 3; j < i; j++ {
			w *= 0.5
		}
		return w
	}
}

// buildEdges constructs the successor edge list of routine r.
func (g *Generator) buildEdges(r int) []edge {
	var totalW float64
	for _, w := range g.p.SuccWeights {
		totalW += w
	}
	x := g.rng.Float64() * totalW
	bucket := 0
	for b, w := range g.p.SuccWeights {
		if x < w {
			bucket = b
			break
		}
		x -= w
	}
	var k int
	switch bucket {
	case 0:
		k = 1
	case 1:
		k = 2
	case 2:
		k = 3 + g.rng.Intn(2) // 3-4
	case 3:
		k = 5 + g.rng.Intn(4) // 5-8
	default:
		k = 9 + g.rng.Intn(8) // 9-16
	}
	nr := g.numRoutines()
	if k >= nr {
		k = nr - 1
	}
	if k < 1 {
		k = 1
	}
	// k <= 16, so a scan finds a repeated target as fast as a set would.
	seen := func(t int, ts []int) bool { return t == r || slices.Contains(ts, t) }
	targets := make([]int, 0, 16)
	for len(targets) < k {
		t := g.routineBySample()
		if seen(t, targets) {
			t = g.rng.Intn(nr)
			if seen(t, targets) {
				continue
			}
		}
		targets = append(targets, t)
	}
	var sum float64
	for j := range targets {
		sum += succProbWeight(j)
	}
	edges := make([]edge, len(targets))
	cum := 0.0
	for j, t := range targets {
		cum += succProbWeight(j) / sum
		edges[j] = edge{target: t, cum: cum}
	}
	edges[len(edges)-1].cum = 1 // guard against rounding
	return edges
}

// enterRoutine begins executing routine r from its first page.
func (g *Generator) enterRoutine(r int) {
	g.curR = r
	g.curIdx = 0
	g.curPage = g.pages[g.rstart[r]]
	g.startRun()
}

// startRun begins a new sequential run inside the current page.
func (g *Generator) startRun() {
	g.curOff = uint64(g.entry[g.curPage*g.p.EntryPoints+g.rng.Intn(g.p.EntryPoints)])
	g.runLeft = g.p.RunLenMin
	if g.p.RunLenMax > g.p.RunLenMin {
		g.runLeft += g.rng.Intn(g.p.RunLenMax - g.p.RunLenMin + 1)
	}
}

// transition moves control to the next page: the next page of the current
// routine (possibly skipping one on a branch), or — at routine end — the
// first page of a successor routine.
func (g *Generator) transition() {
	pages := g.routine(g.curR)
	next := g.curIdx + 1
	if g.p.BranchSkipFrac > 0 && next+1 < len(pages) && g.rng.Float64() < g.p.BranchSkipFrac {
		next++
	}
	if next < len(pages) {
		g.curIdx = next
		g.curPage = pages[next]
		g.startRun()
		return
	}
	// Routine end: call a successor routine.
	var target int
	if g.rng.Float64() < g.p.RandomCallFrac {
		target = g.rng.Intn(g.numRoutines())
	} else {
		es := g.redges[g.curR]
		x := g.rng.Float64()
		target = es[len(es)-1].target
		for _, e := range es {
			if x < e.cum {
				target = e.target
				break
			}
		}
	}
	g.enterRoutine(target)
}

// phaseChange reshuffles part of the routine popularity permutation and
// rebuilds the successor edges of the affected routines, modelling
// application phases.
func (g *Generator) phaseChange() {
	nr := g.numRoutines()
	n := int(float64(nr) * g.p.PhaseShuffleFrac)
	if n < 2 {
		n = 2
	}
	if n > nr {
		n = nr
	}
	// Most phase shuffles rotate popularity within the hot+warm region
	// (the same request mix shifting emphasis); a quarter promote a cold
	// routine, slowly renewing the working set. Swapping arbitrary cold
	// routines into the hot ranks every phase would spread the misses
	// uniformly over the whole footprint, which is not what the paper
	// measures (Finding 2).
	active := g.nHot + g.nWarm
	touched := make(map[int]bool, 2*n)
	for r := 0; r < n; r++ {
		pos := g.rng.Intn(active)
		var other int
		if g.rng.Intn(8) == 0 {
			other = g.rng.Intn(nr)
		} else {
			other = g.rng.Intn(active)
		}
		g.perm[pos], g.perm[other] = g.perm[other], g.perm[pos]
		touched[g.perm[pos]] = true
		touched[g.perm[other]] = true
	}
	// Rebuild in sorted order: map iteration order would consume the RNG
	// nondeterministically and break trace reproducibility.
	order := make([]int, 0, len(touched))
	for r := range touched {
		order = append(order, r)
	}
	sort.Ints(order)
	for _, r := range order {
		g.redges[r] = g.buildEdges(r)
	}
}

// dataAddr produces a data operand address. Streaming accesses advance a
// sequential cursor one cache line at a time (touching each page ~64 times
// before moving on, like a memcpy or scan); the rest hit the Zipf-skewed hot
// set with line-granular offsets.
func (g *Generator) dataAddr() arch.VAddr {
	if g.rng.Float64() < g.p.DataStreamFrac {
		g.streamOff += arch.LineSize
		if g.streamOff >= arch.PageSize {
			g.streamOff = 0
			g.dataPtr = (g.dataPtr + 1) % g.p.DataPages
		}
		return (DataBaseVPN + arch.VPN(g.dataPtr)).Addr() + arch.VAddr(g.streamOff)
	}
	page := int(g.dz.sample(&g.rng))
	off := uint64(g.rng.Int63n(arch.PageSize/arch.LineSize)) << arch.LineShift
	return (DataBaseVPN + arch.VPN(page)).Addr() + arch.VAddr(off)
}

// NextBatch implements Reader; it fills all of dst and never returns an
// error.
func (g *Generator) NextBatch(dst []Record) (int, error) {
	for i := range dst {
		if g.nextPhase != 0 && g.emitted >= g.nextPhase {
			g.phaseChange()
			g.nextPhase += g.p.PhaseLen
		}
		rec := &dst[i]
		rec.PC = (CodeBaseVPN + arch.VPN(g.curPage)).Addr() + arch.VAddr(g.curOff)
		rec.Load, rec.Store = 0, 0
		if g.rng.Float64() < g.p.LoadFrac {
			rec.Load = g.dataAddr()
		}
		if g.rng.Float64() < g.p.StoreFrac {
			if g.rng.Float64() < 0.3 {
				// Some stores hit a small stack region.
				rec.Store = StackVPN.Addr() + arch.VAddr(uint64(g.rng.Int63n(8*arch.PageSize))&^7)
			} else {
				rec.Store = g.dataAddr()
			}
		}
		g.emitted++
		g.curOff += 4
		g.runLeft--
		if g.runLeft <= 0 || g.curOff+4 > arch.PageSize {
			g.transition()
		}
	}
	return len(dst), nil
}

// Emitted returns the number of records produced so far.
func (g *Generator) Emitted() uint64 { return g.emitted }

// Params returns the generator's configuration.
func (g *Generator) Params() ServerParams { return g.p }

// Routines returns the number of routines in the synthetic binary.
func (g *Generator) Routines() int { return g.numRoutines() }
