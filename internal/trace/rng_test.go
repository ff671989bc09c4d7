package trace

import (
	"math/rand"
	"testing"
)

// seqSource is a rand.Source that yields a fixed sequence.
type seqSource []int64

func (s *seqSource) Int63() int64 {
	v := (*s)[0]
	*s = (*s)[1:]
	return v
}

func (s *seqSource) Seed(int64) {}

// TestFloat64Redraw covers the one Float64 path random draws practically
// never reach: a value that rounds to 1 is skipped and the next one used,
// as rand.Rand.Float64 does.
func TestFloat64Redraw(t *testing.T) {
	var s rngSource
	s.Seed(1)
	next := s.vec[1] & rngMask
	s.vec[0] = rngMask // float64(1<<63-1) / (1 << 63) rounds to 1
	want := rand.New(&seqSource{rngMask, next}).Float64()
	if got := s.Float64(); got != want || s.pos != 2 {
		t.Fatalf("Float64 = %v after %d draws, rand.Rand gives %v after 2", got, s.pos, want)
	}
}
