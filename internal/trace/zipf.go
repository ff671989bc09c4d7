package trace

import (
	"math"
	"math/rand"
)

// zipfBits is how many leading bits of a source value index the Zipf table:
// 2^14 buckets of uint16, 32 KiB per generator.
const zipfBits = 14

// zipfSampler draws the generator's data-page ranks. It returns exactly
// what rand.Zipf.Uint64 returns over the same source, mostly without
// evaluating math.Log and math.Exp.
//
// rand.Zipf (rejection-inversion, Hörmann and Derflinger) maps one Float64
// r to x = hinv(hxm + r*hx0minusHxm), which falls as r grows, and proposes
// rank k = floor(x+0.5). It accepts at once when k-x <= s; otherwise it
// runs a second test and draws again on rejection. So every draw whose x
// lies in rank k's first-test interval [k-min(s,0.5), k+0.5) returns k and
// consumes one source value.
//
// The table splits the Int63 range into equal buckets by leading bits. A
// bucket holds k+1 when every value in it lands in rank k's first-test
// interval, and 0 otherwise. sample peeks at the next source value: a
// nonzero bucket consumes it and answers; a zero bucket leaves it to
// rand.Zipf itself, which draws it, and any redraws, from the same source.
// The slow path is exact by construction; DESIGN.md §1 gives the argument
// that every nonzero bucket is right.
type zipfSampler struct {
	tab  [1 << zipfBits]uint16
	slow *rand.Zipf
}

// init sets up a zero sampler to draw as rand.NewZipf(rand.New(src), q, 1,
// imax) does, for q > 1.
func (z *zipfSampler) init(src *rngSource, q float64, imax uint64) {
	z.slow = rand.NewZipf(rand.New(src), q, 1, imax)

	// rand.NewZipf's constants, by its own expressions with v = 1.
	const v = 1.0
	oneminusQ := 1 - q
	oneminusQinv := 1 / oneminusQ
	h := func(x float64) float64 { return math.Exp(oneminusQ*math.Log(v+x)) * oneminusQinv }
	hinv := func(x float64) float64 { return math.Exp(oneminusQinv*math.Log(oneminusQ*x)) - v }
	hxm := h(float64(imax) + 0.5)
	hx0minusHxm := h(0.5) - math.Exp(math.Log(v)*(-q)) - hxm
	s := 1 - hinv(h(1.5)-math.Exp(-q*math.Log(v+1.0)))
	reach := min(s, 0.5) // the first test's reach below k

	const buckets = 1 << zipfBits
	// at maps x to its position on the table, in buckets, through h (the
	// exact inverse of x(r)).
	at := func(x float64) float64 { return (h(x) - hxm) / hx0minusHxm * buckets }
	// within reports whether Float64 keeps source value u and rand.Zipf's
	// own arithmetic puts its x in [lo, hi].
	within := func(u int64, lo, hi float64) bool {
		r := float64(u) / (1 << 63)
		x := hinv(hxm + r*hx0minusHxm)
		return r < 1 && x >= lo && x <= hi
	}
	for k := uint64(0); k <= imax && k < math.MaxUint16; k++ {
		kf := float64(k)
		// The guard keeps bucket edges far inside the first-test interval,
		// above the rounding error of the exp/log chain.
		g := (kf + 1.5) * (1 + math.Abs(oneminusQinv)) * 0x1p-24
		lo, hi := at(kf+0.5-g), at(kf-reach+g)
		if !(hi-lo >= 1) {
			break // narrower than one bucket, and later ranks are narrower
		}
		// Claim the buckets wholly inside [lo, hi), never the last one:
		// it holds the values Float64 rounds to 1 and redraws.
		b1, b2 := max(math.Ceil(lo), 0), min(math.Floor(hi), buckets-1)
		if !(b1 < b2) {
			continue
		}
		first, last := int64(b1)<<(63-zipfBits), int64(b2)<<(63-zipfBits)-1
		xlo, xhi := kf-reach+g/2, kf+0.5-g/2
		if !within(first, xlo, xhi) || !within(last, xlo, xhi) {
			continue
		}
		for b := int(b1); b < int(b2); b++ {
			z.tab[b] = uint16(k + 1)
		}
	}
}

// sample returns the next rank, as z.slow.Uint64 would.
func (z *zipfSampler) sample(src *rngSource) uint64 {
	if e := z.tab[uint64(src.peek())>>(63-zipfBits)&(1<<zipfBits-1)]; e != 0 {
		src.pos++
		return uint64(e - 1)
	}
	return z.slow.Uint64()
}
