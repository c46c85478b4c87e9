package nn

import "math"

// Adam implements the Adam optimizer over a parameter set.
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Eps     float64
	Clip    float64 // max gradient L2 norm per parameter tensor; 0 = off
	t       int
	m, v    map[*Param][]float64
	stepped bool
}

// NewAdam returns an Adam optimizer with standard defaults.
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, Clip: 5.0,
		m: map[*Param][]float64{}, v: map[*Param][]float64{},
	}
}

// Step applies one update to every parameter and zeroes gradients.
func (a *Adam) Step(set *Set) {
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range set.All() {
		m := a.m[p]
		if m == nil {
			m = make([]float64, len(p.V))
			a.m[p] = m
		}
		v := a.v[p]
		if v == nil {
			v = make([]float64, len(p.V))
			a.v[p] = v
		}
		if a.Clip > 0 {
			norm := 0.0
			for _, g := range p.G {
				norm += g * g
			}
			norm = math.Sqrt(norm)
			if norm > a.Clip {
				scale := a.Clip / norm
				for i := range p.G {
					p.G[i] *= scale
				}
			}
		}
		for i, g := range p.G {
			m[i] = a.Beta1*m[i] + (1-a.Beta1)*g
			v[i] = a.Beta2*v[i] + (1-a.Beta2)*g*g
			p.V[i] -= a.LR * (m[i] / bc1) / (math.Sqrt(v[i]/bc2) + a.Eps)
		}
	}
	set.ZeroGrad()
}
