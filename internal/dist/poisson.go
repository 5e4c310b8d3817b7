package dist

import "math"

// Poisson is a Poisson distribution with mean Lambda. Lambda <= 0 is the
// degenerate point mass at zero, which the callers use for "no arrivals".
type Poisson struct {
	Lambda float64
}

// PMF returns P(X = k), computed in log space so it stays finite for means
// far beyond exp(-745)'s underflow point.
func (d Poisson) PMF(k int) float64 {
	if k < 0 {
		return 0
	}
	if d.Lambda <= 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	lg, _ := math.Lgamma(float64(k) + 1)
	return math.Exp(float64(k)*math.Log(d.Lambda) - d.Lambda - lg)
}

// Tail returns P(X >= n). When n is above the mean the sum is taken over the
// upper tail directly, so tiny tail masses are not lost to cancellation
// against 1.
func (d Poisson) Tail(n int) float64 {
	if n <= 0 {
		return 1
	}
	if d.Lambda <= 0 {
		return 0
	}
	if float64(n) > d.Lambda {
		// Sum upward from n: terms decay geometrically past the mode.
		term := d.PMF(n)
		sum := term
		for k := n + 1; term > 0; k++ {
			term *= d.Lambda / float64(k)
			sum += term
			if term < sum*1e-17 {
				break
			}
		}
		return sum
	}
	// n at or below the mean: the head 0..n-1 is the smaller piece.
	head := 0.0
	term := d.PMF(n - 1)
	head = term
	for k := n - 1; k > 0 && term > 0; k-- {
		term *= float64(k) / d.Lambda
		head += term
	}
	if head >= 1 {
		return 0
	}
	return 1 - head
}

// TruncationPoint returns the smallest s0 >= 1 with P(X >= s0) <= eps — the
// s0 of Section 3.2 that bounds the transition tables of the deadline MDP.
func (d Poisson) TruncationPoint(eps float64) int {
	if d.Lambda <= 0 {
		return 1
	}
	if eps <= 0 {
		eps = 1e-300
	}
	// Accumulate the CDF anchored at the mode so no individual term
	// underflows; stop once the remaining mass is within eps.
	mode := int(d.Lambda)
	anchor := d.PMF(mode)
	cum := anchor
	term := anchor
	for k := mode - 1; k >= 0; k-- {
		term *= float64(k+1) / d.Lambda
		cum += term
		if term < anchor*1e-18 {
			break
		}
	}
	k := mode
	term = anchor
	for 1-cum > eps && term > 0 {
		k++
		term *= d.Lambda / float64(k)
		cum += term
	}
	return k + 1
}

// Sample draws from the distribution: sequential-search inversion for small
// means, Hörmann's PTRS transformed rejection for large ones.
func (d Poisson) Sample(r *RNG) int {
	switch {
	case d.Lambda <= 0:
		return 0
	case d.Lambda < 10:
		return d.sampleInversion(r)
	default:
		return d.samplePTRS(r)
	}
}

// sampleInversion walks the CDF from zero (Devroye's sequential search).
// Expected work is O(λ), so it is reserved for λ < 10 where it beats the
// rejection setup cost and is exact.
func (d Poisson) sampleInversion(r *RNG) int {
	p := math.Exp(-d.Lambda)
	cum := p
	u := r.Float64()
	k := 0
	for u > cum {
		k++
		p *= d.Lambda / float64(k)
		cum += p
		if p <= 0 { // numerically exhausted tail
			break
		}
	}
	return k
}

// samplePTRS is the transformed-rejection sampler of Hörmann (1993),
// "The transformed rejection method for generating Poisson random
// variables". Valid for λ >= 10; O(1) expected draws per sample.
func (d Poisson) samplePTRS(r *RNG) int {
	lam := d.Lambda
	logLam := math.Log(lam)
	b := 0.931 + 2.53*math.Sqrt(lam)
	a := -0.059 + 0.02483*b
	invAlpha := 1.1239 + 1.1328/(b-3.4)
	vr := 0.9277 - 3.6224/(b-2)
	for {
		u := r.Float64() - 0.5
		v := r.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + lam + 0.43)
		if us >= 0.07 && v <= vr {
			return int(k)
		}
		if k < 0 || (us < 0.013 && v > us) {
			continue
		}
		lg, _ := math.Lgamma(k + 1)
		if math.Log(v*invAlpha/(a/(us*us)+b)) <= k*logLam-lam-lg {
			return int(k)
		}
	}
}
