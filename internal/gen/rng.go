// Package gen produces the deterministic synthetic graphs used to stand in
// for the paper's real-life datasets (LiveJournal, WikiTalk, Citation, ...)
// and for the scalability experiments driven by the densification law of
// Leskovec et al. All generators are fully determined by an explicit seed so
// that experiments and tests are reproducible.
package gen

// RNG is a small, fast deterministic pseudo-random generator (splitmix64).
// We avoid math/rand so that generated graphs are stable across Go releases:
// the experiments (internal/exp) and the benchmark depend on specific
// generated instances.
type RNG struct{ state uint64 }

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next pseudo-random 64-bit value.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform value in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("gen: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Zipf samples from a Zipf-like distribution over [0, n) with skew s >= 0.
// s == 0 degenerates to uniform. The implementation uses inverse-CDF over a
// precomputed table; build one Zipf per (n, s) pair and reuse it.
type Zipf struct {
	cdf []float64
	rng *RNG
}

// NewZipf builds a Zipf sampler over [0, n) with exponent s, drawing
// randomness from rng.
func NewZipf(rng *RNG, n int, s float64) *Zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		w := 1.0
		if s > 0 {
			w = 1.0 / pow(float64(i+1), s)
		}
		sum += w
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf, rng: rng}
}

// Next samples a value in [0, n).
func (z *Zipf) Next() int {
	u := z.rng.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// pow computes x**y for positive x without importing math (exp/log via
// the identity would need math anyway, so do iterative multiplication for
// the common small-exponent case and a series otherwise). The precision
// demands here are modest: pow only shapes a sampling distribution.
func pow(x, y float64) float64 {
	// x^y = exp(y * ln x); implement ln and exp with enough precision for
	// distribution shaping. Range of interest: x in [1, 1e7], y in [0, 3].
	return exp(y * ln(x))
}

func ln(x float64) float64 {
	// Normalize x = m * 2^k with m in [1, 2).
	k := 0
	for x >= 2 {
		x /= 2
		k++
	}
	for x < 1 {
		x *= 2
		k--
	}
	// atanh series: ln(m) = 2*atanh((m-1)/(m+1)).
	t := (x - 1) / (x + 1)
	t2 := t * t
	term := t
	sum := 0.0
	for i := 1; i < 40; i += 2 {
		sum += term / float64(i)
		term *= t2
	}
	const ln2 = 0.6931471805599453
	return 2*sum + float64(k)*ln2
}

func exp(x float64) float64 {
	neg := false
	if x < 0 {
		neg = true
		x = -x
	}
	// e^x = e^i * e^f.
	i := int(x)
	f := x - float64(i)
	const e = 2.718281828459045
	ei := 1.0
	for j := 0; j < i; j++ {
		ei *= e
	}
	// Taylor series for e^f, f in [0,1).
	term, sum := 1.0, 1.0
	for j := 1; j < 20; j++ {
		term *= f / float64(j)
		sum += term
	}
	r := ei * sum
	if neg {
		return 1 / r
	}
	return r
}
