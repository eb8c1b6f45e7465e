package sim

import "math"

// RNG is a xoshiro256** pseudo-random generator. It is small, fast, and —
// unlike math/rand's global state — explicitly seeded, so simulations are
// reproducible. Derived streams (see Stream) let independent model
// components draw without perturbing each other.
type RNG struct {
	s [4]uint64
}

func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRNG returns a generator seeded from seed via splitmix64, per the
// xoshiro authors' recommendation.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	x := seed
	for i := range r.s {
		r.s[i] = splitmix64(&x)
	}
	return r
}

// Clone returns an independent copy of the generator: both copies continue
// from the same state without perturbing each other.
func (r *RNG) Clone() *RNG {
	c := *r
	return &c
}

// Stream derives an independent generator for the named component. The same
// (seed, name) pair always yields the same stream. Note that deriving a
// stream advances the parent generator (it mixes in a fresh draw), so
// stream derivation order is part of a run's determinism contract: a rep in
// a reused world must derive the same streams in the same order as a fresh
// one.
func (r *RNG) Stream(name string) *RNG {
	// FNV-1a over the name, mixed with a fresh draw from r.
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return NewRNG(h ^ r.Uint64())
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1). Scaling by the exact
// reciprocal 0x1p-53 is bit-identical to dividing by 1<<53 (both only
// adjust the exponent) and skips the division.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * 0x1p-53
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with n <= 0")
	}
	return int64(r.Uint64() % uint64(n))
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// ExpFloat64 returns an exponentially distributed value with the given rate
// (events per unit); mean is 1/rate.
func (r *RNG) ExpFloat64(rate float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u) / rate
}

// NormFloat64 returns a standard normal value (Box-Muller).
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Normal returns a normal value with the given mean and standard deviation.
func (r *RNG) Normal(mean, sd float64) float64 {
	return mean + sd*r.NormFloat64()
}

// LogNormal returns exp(N(mu, sigma)). For a target mean m and "spread" s
// (sd of the underlying normal), use mu = ln(m) - s^2/2.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// LogNormalMean returns a log-normal value with the given arithmetic mean
// and log-space sigma.
func (r *RNG) LogNormalMean(mean, sigma float64) float64 {
	if mean <= 0 {
		return 0
	}
	return r.LogNormal(LogNormalMu(mean, sigma), sigma)
}

// LogNormalMu returns the log-space location parameter LogNormalMean
// derives from (mean, sigma). Hot loops with fixed per-source parameters
// hoist it once and draw via LogNormal directly, skipping a math.Log per
// draw; the hoisted value is the same computation, so draws stay
// bit-identical.
func LogNormalMu(mean, sigma float64) float64 {
	return math.Log(mean) - sigma*sigma/2
}

// Pareto returns a Pareto(xm, alpha) value: heavy-tailed, minimum xm.
func (r *RNG) Pareto(xm, alpha float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// Jitter returns d scaled by a uniform factor in [1-frac, 1+frac].
func (r *RNG) Jitter(d Time, frac float64) Time {
	f := 1 + frac*(2*r.Float64()-1)
	return Time(float64(d) * f)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }
