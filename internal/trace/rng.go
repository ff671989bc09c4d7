package trace

import "math/rand"

// rngSource is a concrete copy of math/rand's default source, an additive
// lagged-Fibonacci generator over 64-bit words:
//
//	x[n] = x[n-607] + x[n-273]  (mod 2^64)
//
// The generator calls it directly instead of through rand.Rand's Source
// interface. Its methods reproduce the value streams of rand.Rand's
// Float64, Intn, Int63n and Perm exactly, and it implements rand.Source64,
// so a rand.Rand built on it (the generator's Zipf slow path) draws from
// the same stream.
//
// The state is one block of 607 consecutive outputs, which is all the
// recurrence looks back on. Seed takes the first block straight from
// rand.NewSource: after 607 draws every slot of math/rand's ring has been
// overwritten exactly once, by one output, so those outputs are the whole
// state. refill then computes the next block in place.
type rngSource struct {
	pos int           // index in vec of the next output
	vec [rngLen]int64 // the current block of outputs, in draw order
}

const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1
)

var _ rand.Source64 = (*rngSource)(nil)

// Seed implements rand.Source: it positions the source where
// rand.NewSource(seed) starts.
func (s *rngSource) Seed(seed int64) {
	src := rand.NewSource(seed).(rand.Source64)
	for i := range s.vec {
		s.vec[i] = int64(src.Uint64())
	}
	s.pos = 0
}

// refill replaces the block x[n-607..n-1] with x[n..n+606]. In place,
// x[n+j-273] is the old vec[j+334] for j < 273 and the new vec[j-273] after.
// It runs once per 607 draws; kept out of line, it leaves Uint64 and peek
// small enough to inline into their callers.
//
//go:noinline
func (s *rngSource) refill() {
	v := &s.vec
	for j := 0; j < rngTap; j++ {
		v[j] += v[j+rngLen-rngTap]
	}
	for j := rngTap; j < rngLen; j++ {
		v[j] += v[j-rngTap]
	}
	s.pos = 0
}

// Uint64 implements rand.Source64.
func (s *rngSource) Uint64() uint64 {
	if s.pos >= rngLen {
		s.refill()
	}
	x := s.vec[s.pos]
	s.pos++
	return uint64(x)
}

// Int63 implements rand.Source.
func (s *rngSource) Int63() int64 { return int64(s.Uint64() & rngMask) }

// peek returns the value the next Int63 call will return, without
// consuming it.
func (s *rngSource) peek() int64 {
	if s.pos >= rngLen {
		s.refill()
	}
	return s.vec[s.pos] & rngMask
}

// Float64 is rand.Rand.Float64, including its redraw of the rare value
// that rounds to 1.
func (s *rngSource) Float64() float64 {
	for {
		if f := float64(s.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// Int63n is rand.Rand.Int63n.
func (s *rngSource) Int63n(n int64) int64 {
	if n <= 0 {
		panic("trace: invalid argument to Int63n")
	}
	if n&(n-1) == 0 {
		return s.Int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := s.Int63()
	for v > max {
		v = s.Int63()
	}
	return v % n
}

// Intn is rand.Rand.Intn, which draws through Int31n below 2^31.
func (s *rngSource) Intn(n int) int {
	if n <= 0 {
		panic("trace: invalid argument to Intn")
	}
	if n > 1<<31-1 {
		return int(s.Int63n(int64(n)))
	}
	m := int32(n)
	if m&(m-1) == 0 {
		return int(int32(s.Int63()>>32) & (m - 1))
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(m))
	v := int32(s.Int63() >> 32)
	for v > max {
		v = int32(s.Int63() >> 32)
	}
	return int(v % m)
}

// Perm is rand.Rand.Perm.
func (s *rngSource) Perm(n int) []int {
	m := make([]int, n)
	for i := 0; i < n; i++ {
		j := s.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m
}
