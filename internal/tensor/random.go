package tensor

import (
	"math"
	"math/rand"
)

// RNG is a seeded pseudo-random source for the random ops. Graph-level
// random kernels own one RNG each so that a fixed graph seed reproduces the
// same stream regardless of scheduling, mirroring the per-op seeding of the
// reference system.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a deterministic generator for the given seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Uniform fills a new tensor with samples from [lo, hi).
func (g *RNG) Uniform(dt DType, shape Shape, lo, hi float64) *Tensor {
	t := New(dt, shape)
	n := t.NumElements()
	for i := 0; i < n; i++ {
		t.SetFloat(i, lo+float64(g.r.Float64()*(hi-lo)))
	}
	return t
}

// UniformInt fills a new integer tensor with samples from [0, n).
func (g *RNG) UniformInt(dt DType, shape Shape, n int) *Tensor {
	t := New(dt, shape)
	cnt := t.NumElements()
	for i := 0; i < cnt; i++ {
		t.SetFloat(i, float64(g.r.Intn(n)))
	}
	return t
}

// Normal fills a new tensor with N(mean, stddev²) samples.
func (g *RNG) Normal(dt DType, shape Shape, mean, stddev float64) *Tensor {
	t := New(dt, shape)
	n := t.NumElements()
	for i := 0; i < n; i++ {
		t.SetFloat(i, mean+float64(g.r.NormFloat64()*stddev))
	}
	return t
}

// TruncatedNormal fills a new tensor with N(mean, stddev²) samples redrawn
// until they fall within two standard deviations, the usual initializer for
// neural-network weights.
func (g *RNG) TruncatedNormal(dt DType, shape Shape, mean, stddev float64) *Tensor {
	t := New(dt, shape)
	n := t.NumElements()
	for i := 0; i < n; i++ {
		v := g.r.NormFloat64()
		for math.Abs(v) > 2 {
			v = g.r.NormFloat64()
		}
		t.SetFloat(i, mean+float64(v*stddev))
	}
	return t
}

// Perm returns a random permutation of [0, n) as an Int32 vector.
func (g *RNG) Perm(n int) *Tensor {
	t := New(Int32, Shape{n})
	for i, v := range g.r.Perm(n) {
		t.Int32s()[i] = int32(v)
	}
	return t
}

// LogUniformInt samples from the log-uniform (Zipfian) distribution over
// [0, rangeMax), the sampler used for sampled softmax candidate classes
// (paper §4.2/§6.4): P(k) = log((k+2)/(k+1)) / log(rangeMax+1).
func (g *RNG) LogUniformInt(rangeMax int) int {
	v := int(math.Exp(g.r.Float64()*math.Log(float64(rangeMax)+1))) - 1
	if v >= rangeMax {
		v = rangeMax - 1
	}
	if v < 0 {
		v = 0
	}
	return v
}

// LogUniformSample draws n log-uniform samples (with replacement) as an
// Int32 vector, plus the expected-count correction term used by sampled
// softmax for each sample.
func (g *RNG) LogUniformSample(n, rangeMax int) (*Tensor, *Tensor) {
	ids := New(Int32, Shape{n})
	expected := New(Float32, Shape{n})
	logRange := math.Log(float64(rangeMax) + 1)
	for i := 0; i < n; i++ {
		k := g.LogUniformInt(rangeMax)
		ids.Int32s()[i] = int32(k)
		p := math.Log(float64(k+2)/float64(k+1)) / logRange
		// Expected count of this id over n draws with replacement.
		expected.Float32s()[i] = float32(-math.Expm1(float64(n) * math.Log1p(-p)))
	}
	return ids, expected
}
