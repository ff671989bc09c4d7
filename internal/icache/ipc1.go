package icache

// The paper's Section 3.5 considers the three top performers of the first
// Instruction Prefetching Championship — EPI, FNL+MMA and D-Jolt — extends
// the IPC-1 infrastructure with address translation costs, and selects
// FNL+MMA as the strongest under translation. This file provides
// faithful-in-spirit approximations of the other two finalists so that the
// selection study can be reproduced (see experiments.ICacheSelection):
//
//   - EPI (Entangling Prefetcher): entangles the line that *triggered* a
//     miss chain ("head") with the lines whose misses follow soon after, so
//     that one fetch of the head prefetches all entangled destinations with
//     enough lead time. We model entangling at miss granularity with a
//     bounded number of destinations per head.
//
//   - D-Jolt (short-distance + long-jump prefetcher): a sequential
//     next-lines engine for straight-line fetch plus a "jolt" table that
//     records, per call-like long jump source region, the distant target
//     line and a small footprint after it, prefetched together when the
//     source region is fetched again.
//
// Both cross page boundaries, like the originals.

// EPI approximates the Entangling Instruction Prefetcher.
type EPI struct {
	// Destinations is the maximum entangled destinations per head line.
	Destinations int
	// Window is how many subsequent misses entangle with the current head.
	Window int

	ents []epiEntry
	ways int
	sets int
	tick uint64

	head      uint64 // current entangling head line
	sinceHead int    // misses observed since the head
	haveHead  bool

	out []uint64 // reusable OnFetch buffer (valid until the next call)
}

type epiEntry struct {
	line  uint64
	dst   []uint64
	dused []uint64
	used  uint64
	valid bool
}

// NewEPI builds the prefetcher with the given entangling-table geometry.
func NewEPI(entries, ways, destinations, window int) *EPI {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		panic("icache: EPI geometry must be positive with entries a multiple of ways")
	}
	if destinations < 1 {
		destinations = 1
	}
	if window < 1 {
		window = 1
	}
	// One array backs every entry's destinations and their recency stamps,
	// so entangling never allocates.
	ents := make([]epiEntry, entries)
	store := make([]uint64, 2*entries*destinations)
	for i := range ents {
		d := store[2*i*destinations:]
		ents[i].dst = d[:0:destinations]
		ents[i].dused = d[destinations : destinations : 2*destinations]
	}
	return &EPI{
		Destinations: destinations,
		Window:       window,
		ents:         ents,
		ways:         ways,
		sets:         entries / ways,
	}
}

// Name implements Prefetcher.
func (e *EPI) Name() string { return "EPI" }

func (e *EPI) set(line uint64) []epiEntry {
	s := int(line % uint64(e.sets))
	return e.ents[s*e.ways : (s+1)*e.ways]
}

func (e *EPI) find(line uint64, insert bool) *epiEntry {
	set := e.set(line)
	victim := 0
	for i := range set {
		if set[i].valid && set[i].line == line {
			e.tick++
			set[i].used = e.tick
			return &set[i]
		}
		if !set[i].valid {
			victim = i
		} else if set[victim].valid && set[i].used < set[victim].used {
			victim = i
		}
	}
	if !insert {
		return nil
	}
	e.tick++
	v := &set[victim] // keeps the victim's destination storage
	*v = epiEntry{line: line, dst: v.dst[:0], dused: v.dused[:0], used: e.tick, valid: true}
	return v
}

// entangle records dst as a destination of the current head.
func (e *EPI) entangle(dst uint64) {
	ent := e.find(e.head, true)
	for i, d := range ent.dst {
		if d == dst {
			e.tick++
			ent.dused[i] = e.tick
			return
		}
	}
	e.tick++
	if len(ent.dst) < e.Destinations {
		ent.dst = append(ent.dst, dst)
		ent.dused = append(ent.dused, e.tick)
		return
	}
	v := 0
	for i := range ent.dused {
		if ent.dused[i] < ent.dused[v] {
			v = i
		}
	}
	ent.dst[v] = dst
	ent.dused[v] = e.tick
}

// OnFetch implements Prefetcher.
func (e *EPI) OnFetch(line uint64, miss bool) []uint64 {
	var out []uint64
	// Trigger: any fetch of an entangling head prefetches its
	// destinations ahead of their misses.
	if ent := e.find(line, false); ent != nil {
		e.out = append(e.out[:0], ent.dst...)
		out = e.out
	}
	if miss {
		if e.haveHead && e.sinceHead < e.Window && line != e.head {
			e.entangle(line)
			e.sinceHead++
		} else {
			// This miss starts a new entangling chain.
			e.head = line
			e.sinceHead = 0
			e.haveHead = true
		}
	}
	return out
}

// Flush implements Prefetcher.
func (e *EPI) Flush() {
	for i := range e.ents {
		e.ents[i].valid = false
	}
	e.haveHead = false
}

var _ Prefetcher = (*EPI)(nil)

// DJolt approximates the D-Jolt prefetcher: sequential next-lines for
// short-distance fetch plus a long-jump table that, when a source region is
// re-fetched, "jolts" ahead to the recorded distant target and its
// footprint.
type DJolt struct {
	// Degree is the sequential lookahead.
	Degree int
	// Footprint is how many lines after a jump target are prefetched.
	Footprint int
	// JumpMin is the minimum line distance treated as a long jump.
	JumpMin uint64

	ents     []djoltEntry
	ways     int
	sets     int
	tick     uint64
	lastLine uint64
	seeded   bool

	out []uint64 // reusable OnFetch buffer (valid until the next call)
}

type djoltEntry struct {
	srcRegion uint64
	target    uint64
	used      uint64
	valid     bool
}

// regionShift groups jump sources into 4-line regions, giving the jolt
// table some reach without per-line precision.
const regionShift = 2

// NewDJolt builds the prefetcher with the given jump-table geometry.
func NewDJolt(entries, ways, degree, footprint int, jumpMin uint64) *DJolt {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		panic("icache: D-Jolt geometry must be positive with entries a multiple of ways")
	}
	if degree < 1 {
		degree = 1
	}
	if footprint < 1 {
		footprint = 1
	}
	if jumpMin < 2 {
		jumpMin = 2
	}
	return &DJolt{
		Degree:    degree,
		Footprint: footprint,
		JumpMin:   jumpMin,
		ents:      make([]djoltEntry, entries),
		ways:      ways,
		sets:      entries / ways,
	}
}

// Name implements Prefetcher.
func (d *DJolt) Name() string { return "D-Jolt" }

func (d *DJolt) set(region uint64) []djoltEntry {
	s := int(region % uint64(d.sets))
	return d.ents[s*d.ways : (s+1)*d.ways]
}

// OnFetch implements Prefetcher.
func (d *DJolt) OnFetch(line uint64, miss bool) []uint64 {
	out := d.out[:0]
	for i := 1; i <= d.Degree; i++ {
		out = append(out, line+uint64(i))
	}
	region := line >> regionShift
	set := d.set(region)
	for i := range set {
		if set[i].valid && set[i].srcRegion == region {
			d.tick++
			set[i].used = d.tick
			for f := uint64(0); f <= uint64(d.Footprint); f++ {
				out = append(out, set[i].target+f)
			}
			break
		}
	}
	// Learn long jumps from the fetch stream.
	if d.seeded {
		delta := line - d.lastLine
		if d.lastLine > line {
			delta = d.lastLine - line
		}
		if delta >= d.JumpMin {
			src := d.lastLine >> regionShift
			set := d.set(src)
			victim := 0
			for i := range set {
				if set[i].valid && set[i].srcRegion == src {
					victim = i
					break
				}
				if !set[i].valid {
					victim = i
				} else if set[victim].valid && set[i].used < set[victim].used {
					victim = i
				}
			}
			d.tick++
			set[victim] = djoltEntry{srcRegion: src, target: line, used: d.tick, valid: true}
		}
	}
	d.lastLine = line
	d.seeded = true
	d.out = out
	return out
}

// Flush implements Prefetcher.
func (d *DJolt) Flush() {
	for i := range d.ents {
		d.ents[i].valid = false
	}
	d.seeded = false
}

var _ Prefetcher = (*DJolt)(nil)
