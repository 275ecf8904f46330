package filter

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Biquad is one second-order section y[n] = b0 x + b1 x[-1] + b2 x[-2]
// - a1 y[-1] - a2 y[-2] (a0 normalized to 1).
type Biquad struct {
	B0, B1, B2 float64
	A1, A2     float64
}

// SOS is a cascade of biquads with an overall gain — the numerically robust
// realization of high-order IIR filters (direct forms amplify roundoff
// catastrophically beyond order ~10, which both fixed-point hardware and
// the double-precision simulator care about).
type SOS struct {
	Gain     float64
	Sections []Biquad
}

// Order returns the total filter order: odd-order designs carry one
// first-order section (B2 == A2 == 0), so sections are counted by their
// actual degree.
func (c SOS) Order() int {
	total := 0
	for _, s := range c.Sections {
		degB, degA := 0, 0
		switch {
		case s.B2 != 0:
			degB = 2
		case s.B1 != 0:
			degB = 1
		}
		switch {
		case s.A2 != 0:
			degA = 2
		case s.A1 != 0:
			degA = 1
		}
		if degB > degA {
			total += degB
		} else {
			total += degA
		}
	}
	return total
}

// DesignIIRSOS designs the same filter as DesignIIR but returns it as a
// biquad cascade built directly from the analog prototype's poles and zeros
// — avoiding the ill-conditioned polynomial expansion of high-order direct
// forms entirely. Poles are paired with the zeros nearest them (classic
// peak-limiting pairing), conjugate pairs per section, ordered by
// increasing pole radius.
func DesignIIRSOS(spec IIRSpec) (SOS, error) {
	if spec.Order < 1 {
		return SOS{}, fmt.Errorf("filter: IIR order %d < 1", spec.Order)
	}
	if spec.F1 <= 0 || spec.F1 >= 0.5 {
		return SOS{}, fmt.Errorf("filter: cutoff F1=%g outside (0, 0.5)", spec.F1)
	}
	needsF2 := spec.Band == Bandpass || spec.Band == Bandstop
	if needsF2 && (spec.F2 <= spec.F1 || spec.F2 >= 0.5) {
		return SOS{}, fmt.Errorf("filter: cutoff F2=%g must satisfy F1 < F2 < 0.5", spec.F2)
	}
	ripple := spec.RippleDB
	if ripple <= 0 {
		ripple = 1
	}
	poles, gain, err := prototypeLP(spec.Kind, spec.Order, ripple)
	if err != nil {
		return SOS{}, err
	}
	var zeros []complex128
	warp := func(F float64) float64 { return 2 * math.Tan(math.Pi*F) }
	switch spec.Band {
	case Lowpass:
		zeros, poles, gain = lpToLP(zeros, poles, gain, warp(spec.F1))
	case Highpass:
		zeros, poles, gain = lpToHP(zeros, poles, gain, warp(spec.F1))
	case Bandpass:
		w1, w2 := warp(spec.F1), warp(spec.F2)
		zeros, poles, gain = lpToBP(zeros, poles, gain, math.Sqrt(w1*w2), w2-w1)
	case Bandstop:
		w1, w2 := warp(spec.F1), warp(spec.F2)
		zeros, poles, gain = lpToBS(zeros, poles, gain, math.Sqrt(w1*w2), w2-w1)
	default:
		return SOS{}, fmt.Errorf("filter: unknown band type %v", spec.Band)
	}
	zd, pd, kd := bilinear(zeros, poles, gain)
	return zpkToSOS(zd, pd, kd)
}

// zpkToSOS groups digital zeros and poles into biquads.
func zpkToSOS(zeros, poles []complex128, gain float64) (SOS, error) {
	if len(zeros) > len(poles) {
		return SOS{}, fmt.Errorf("filter: more zeros (%d) than poles (%d)", len(zeros), len(poles))
	}
	// Pad zeros at the origin to match counts (z = 0 adds pure delay-free
	// numerator terms).
	zs := append([]complex128(nil), zeros...)
	for len(zs) < len(poles) {
		zs = append(zs, 0)
	}
	pairsP, err := conjugatePairs(poles)
	if err != nil {
		return SOS{}, err
	}
	pairsZ, err := conjugatePairs(zs)
	if err != nil {
		return SOS{}, err
	}
	if len(pairsZ) < len(pairsP) {
		pairsZ = append(pairsZ, [2]complex128{0, 0})
	}
	// Order pole pairs by radius ascending; pair each with the nearest
	// unused zero pair.
	used := make([]bool, len(pairsZ))
	cas := SOS{Gain: gain}
	for _, pp := range pairsP {
		best, bestDist := -1, math.Inf(1)
		for i, zp := range pairsZ {
			if used[i] {
				continue
			}
			d := cmplx.Abs(pp[0] - zp[0])
			if d < bestDist {
				best, bestDist = i, d
			}
		}
		if best < 0 {
			return SOS{}, fmt.Errorf("filter: zero pairing exhausted")
		}
		used[best] = true
		zp := pairsZ[best]
		cas.Sections = append(cas.Sections, pairToBiquad(zp, pp))
	}
	// Sort sections by pole radius so the high-Q section comes last
	// (minimizes intermediate signal growth).
	for i := 1; i < len(cas.Sections); i++ {
		for j := i; j > 0 && sectionRadius(cas.Sections[j]) < sectionRadius(cas.Sections[j-1]); j-- {
			cas.Sections[j], cas.Sections[j-1] = cas.Sections[j-1], cas.Sections[j]
		}
	}
	return cas, nil
}

func sectionRadius(s Biquad) float64 {
	// |a2| is the squared pole radius for conjugate pairs.
	return math.Sqrt(math.Abs(s.A2))
}

// conjugatePairs groups roots into conjugate (or real) pairs.
func conjugatePairs(roots []complex128) ([][2]complex128, error) {
	const tol = 1e-8
	var cplx []complex128
	var reals []complex128
	for _, r := range roots {
		if math.Abs(imag(r)) < tol {
			reals = append(reals, complex(real(r), 0))
		} else {
			cplx = append(cplx, r)
		}
	}
	var pairs [][2]complex128
	usedC := make([]bool, len(cplx))
	for i, r := range cplx {
		if usedC[i] {
			continue
		}
		found := false
		for j := i + 1; j < len(cplx); j++ {
			if usedC[j] {
				continue
			}
			if cmplx.Abs(cplx[j]-cmplx.Conj(r)) < tol*(1+cmplx.Abs(r)) {
				pairs = append(pairs, [2]complex128{r, cplx[j]})
				usedC[i], usedC[j] = true, true
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("filter: unpaired complex root %v", r)
		}
	}
	if len(reals)%2 != 0 {
		reals = append(reals, 0)
	}
	for i := 0; i+1 < len(reals); i += 2 {
		pairs = append(pairs, [2]complex128{reals[i], reals[i+1]})
	}
	return pairs, nil
}

// pairToBiquad expands one (zero pair, pole pair) into real coefficients.
func pairToBiquad(zp, pp [2]complex128) Biquad {
	// (1 - z1 q)(1 - z2 q) = 1 - (z1+z2) q + z1 z2 q^2 with q = z^-1.
	b1 := -real(zp[0] + zp[1])
	b2 := real(zp[0] * zp[1])
	a1 := -real(pp[0] + pp[1])
	a2 := real(pp[0] * pp[1])
	return Biquad{B0: 1, B1: b1, B2: b2, A1: a1, A2: a2}
}
