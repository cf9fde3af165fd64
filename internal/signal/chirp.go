package signal

import (
	"fmt"
	"math"
	"math/cmplx"
)

// LFMChirp returns the baseband samples of a linear-FM (chirp) pulse of n
// samples sweeping bandwidth fraction bw in [0, 1] of the sampling rate,
// centred on zero frequency. It is used both by the radar scenario
// generator (the transmitted pulse convolved into the scene) and by the
// pulse-compression task (the matched-filter replica).
func LFMChirp(n int, bw float64) []complex128 {
	if n <= 0 {
		panic(fmt.Sprintf("signal: LFMChirp length %d <= 0", n))
	}
	if bw < 0 || bw > 1 {
		panic(fmt.Sprintf("signal: LFMChirp bandwidth fraction %v outside [0,1]", bw))
	}
	out := make([]complex128, n)
	// Instantaneous frequency sweeps -bw/2 .. +bw/2 cycles/sample.
	// phase(t) = 2*pi * ( -bw/2 * t + bw/(2n) * t^2 )
	for t := 0; t < n; t++ {
		tf := float64(t)
		phase := 2 * math.Pi * (-bw/2*tf + bw/(2*float64(n))*tf*tf)
		out[t] = cmplx.Exp(complex(0, phase))
	}
	return out
}

// MatchedFilter returns the matched-filter kernel for pulse p: the
// time-reversed complex conjugate, normalised to unit energy so that
// compression gain is purely the time-bandwidth product.
func MatchedFilter(p []complex128) []complex128 {
	n := len(p)
	out := make([]complex128, n)
	var energy float64
	for _, v := range p {
		energy += real(v)*real(v) + imag(v)*imag(v)
	}
	scale := 1.0
	if energy > 0 {
		scale = 1 / math.Sqrt(energy)
	}
	for i, v := range p {
		c := cmplx.Conj(v)
		out[n-1-i] = complex(real(c)*scale, imag(c)*scale)
	}
	return out
}

// SteeringVector returns the spatial steering vector for a uniform linear
// array of n elements with half-wavelength spacing, steered to normalised
// angle u = sin(theta) in [-1, 1]. Element k has phase 2*pi*(d/lambda)*k*u
// with d/lambda = 1/2.
func SteeringVector(n int, u float64) []complex128 {
	out := make([]complex128, n)
	SteeringVectorInto(out, u)
	return out
}

// SteeringVectorInto writes the len(out)-element SteeringVector for angle
// u into out.
func SteeringVectorInto(out []complex128, u float64) {
	for k := range out {
		phase := math.Pi * float64(k) * u
		out[k] = cmplx.Exp(complex(0, phase))
	}
}

// DopplerSteeringVector returns the temporal steering vector of n pulses
// for normalised Doppler frequency fd in cycles/PRI.
func DopplerSteeringVector(n int, fd float64) []complex128 {
	out := make([]complex128, n)
	for p := 0; p < n; p++ {
		phase := 2 * math.Pi * fd * float64(p)
		out[p] = cmplx.Exp(complex(0, phase))
	}
	return out
}
