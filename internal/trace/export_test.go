package trace

// Internals for the external tests, which compare them with math/rand over
// the built-in workloads' parameters (package workloads imports trace).

type RNGSource = rngSource

type ZipfSampler = zipfSampler

const ZipfBits = zipfBits

func (z *zipfSampler) Init(src *rngSource, q float64, imax uint64) { z.init(src, q, imax) }

func (z *zipfSampler) Sample(src *rngSource) uint64 { return z.sample(src) }

// Table returns the bucket table: k+1 for a bucket that answers rank k, 0
// for one that defers to rand.Zipf.
func (z *zipfSampler) Table() []uint16 { return z.tab[:] }

// ZipfS is the exponent the generator samples data pages with.
func (p *ServerParams) ZipfS() float64 { return p.zipfS() }
