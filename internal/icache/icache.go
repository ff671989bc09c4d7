// Package icache implements the instruction-cache prefetchers the paper
// evaluates: the baseline next-line prefetcher that never crosses page
// boundaries (Table 1), and an FNL+MMA-style prefetcher — the IPC-1 winner —
// that does cross page boundaries and therefore implicitly generates
// instruction TLB traffic (Sections 3.5 and 6.5).
//
// FNL+MMA here is a faithful-in-spirit approximation built from its two
// published components: a Footprint Next Line engine that pushes several
// sequential lines ahead of the fetch stream, and a Multiple Miss Ahead
// engine that learns the successors of I-cache miss lines and runs the
// learned miss chain ahead of the demand stream. What the paper's
// experiments need from it — aggressive, reasonably accurate page-crossing
// instruction prefetches whose timeliness depends on address translation —
// is preserved. See DESIGN.md for the substitution note.
package icache

import "morrigan/internal/arch"

// Prefetcher produces instruction prefetch candidates, as virtual line
// numbers, in response to the demand fetch stream.
type Prefetcher interface {
	// Name identifies the prefetcher in reports.
	Name() string
	// OnFetch observes a demand fetch of the given virtual line and
	// whether it missed in the L1I; it returns virtual lines to prefetch.
	// The returned slice is only valid until the next OnFetch call:
	// stateful implementations reuse an internal buffer to keep the fetch
	// path allocation-free.
	OnFetch(line uint64, miss bool) []uint64
	// Flush clears learned state.
	Flush()
}

// linesPerPage is how many cache lines one 4 KB page holds (64).
const linesPerPage = arch.PageSize / arch.LineSize

// samePage reports whether two virtual lines fall in the same page.
func samePage(a, b uint64) bool {
	return a/linesPerPage == b/linesPerPage
}

// NextLine is the baseline next-line prefetcher: on every fetch it prefetches
// the following line unless that would cross a page boundary. It learns
// nothing; its one-element output buffer keeps OnFetch allocation-free.
type NextLine struct{ out [1]uint64 }

// Name implements Prefetcher.
func (*NextLine) Name() string { return "next-line" }

// OnFetch implements Prefetcher.
func (n *NextLine) OnFetch(line uint64, miss bool) []uint64 {
	if !samePage(line, line+1) {
		return nil
	}
	n.out[0] = line + 1
	return n.out[:]
}

// Flush implements Prefetcher.
func (*NextLine) Flush() {}

var _ Prefetcher = (*NextLine)(nil)

// mmaEntry holds the learned miss successors of one miss line.
type mmaEntry struct {
	line  uint64
	succ  [2]uint64
	sused [2]uint64
	n     int
	used  uint64
	valid bool
}

// FNLMMA approximates the IPC-1 winner. The FNL component prefetches Degree
// sequential lines ahead of every fetch, crossing page boundaries; the MMA
// component records, per I-cache miss line, the next miss lines and walks
// that chain Ahead steps forward on each miss.
type FNLMMA struct {
	// Degree is the sequential lookahead of the FNL component.
	Degree int
	// Ahead is how many learned miss-successor steps MMA runs forward.
	Ahead int

	ents     []mmaEntry
	ways     int
	sets     int
	tick     uint64
	prevMiss uint64
	seeded   bool

	// Reusable OnFetch buffers (result valid until the next call).
	out      []uint64
	frontier []uint64
	next     []uint64
}

// NewFNLMMA builds the prefetcher with the given miss-table capacity.
func NewFNLMMA(entries, ways, degree, ahead int) *FNLMMA {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		panic("icache: FNL+MMA geometry must be positive with entries a multiple of ways")
	}
	if degree < 1 {
		degree = 1
	}
	if ahead < 1 {
		ahead = 1
	}
	return &FNLMMA{
		Degree: degree,
		Ahead:  ahead,
		ents:   make([]mmaEntry, entries),
		ways:   ways,
		sets:   entries / ways,
	}
}

// Name implements Prefetcher.
func (f *FNLMMA) Name() string { return "FNL+MMA" }

func (f *FNLMMA) set(line uint64) []mmaEntry {
	s := int(line % uint64(f.sets))
	return f.ents[s*f.ways : (s+1)*f.ways]
}

func (f *FNLMMA) find(line uint64) *mmaEntry {
	set := f.set(line)
	for i := range set {
		if set[i].valid && set[i].line == line {
			f.tick++
			set[i].used = f.tick
			return &set[i]
		}
	}
	return nil
}

// record notes that a miss on prev was followed by a miss on cur.
func (f *FNLMMA) record(prev, cur uint64) {
	e := f.find(prev)
	if e == nil {
		set := f.set(prev)
		victim := 0
		for i := range set {
			if !set[i].valid {
				victim = i
				break
			}
			if set[i].used < set[victim].used {
				victim = i
			}
		}
		f.tick++
		set[victim] = mmaEntry{line: prev, used: f.tick, valid: true}
		e = &set[victim]
	}
	for i := 0; i < e.n; i++ {
		if e.succ[i] == cur {
			e.sused[i] = f.tick
			return
		}
	}
	if e.n < len(e.succ) {
		e.succ[e.n] = cur
		e.sused[e.n] = f.tick
		e.n++
		return
	}
	v := 0
	if e.sused[1] < e.sused[0] {
		v = 1
	}
	e.succ[v] = cur
	e.sused[v] = f.tick
}

// OnFetch implements Prefetcher.
func (f *FNLMMA) OnFetch(line uint64, miss bool) []uint64 {
	out := f.out[:0]
	// FNL: run several lines ahead, across page boundaries.
	for d := 1; d <= f.Degree; d++ {
		out = append(out, line+uint64(d))
	}
	if miss {
		if f.seeded && f.prevMiss != line {
			f.record(f.prevMiss, line)
		}
		f.prevMiss = line
		f.seeded = true
		// MMA: follow the learned miss chain ahead.
		frontier := append(f.frontier[:0], line)
		next := f.next[:0]
		for depth := 0; depth < f.Ahead; depth++ {
			next = next[:0]
			for _, l := range frontier {
				e := f.find(l)
				if e == nil {
					continue
				}
				for i := 0; i < e.n; i++ {
					out = append(out, e.succ[i])
					next = append(next, e.succ[i])
				}
			}
			if len(next) == 0 {
				break
			}
			frontier, next = next, frontier
		}
		f.frontier, f.next = frontier[:0], next[:0]
	}
	f.out = out
	return out
}

// Flush implements Prefetcher.
func (f *FNLMMA) Flush() {
	for i := range f.ents {
		f.ents[i].valid = false
	}
	f.seeded = false
}

var _ Prefetcher = (*FNLMMA)(nil)
