// Package stap implements the signal-processing tasks of the modified
// PRI-staggered post-Doppler STAP algorithm that the parallel pipeline
// executes: Doppler filter processing, easy and hard adaptive weight
// computation, easy and hard beamforming, pulse compression, and CFAR
// detection.
//
// # Algorithm outline
//
// Each CPI arrives as a data cube of (Channels x Pulses x Ranges) complex
// samples. Doppler filter processing forms, for every channel and range
// gate, two PRI-staggered Doppler spectra: stagger 0 transforms pulses
// [0, P-1), stagger 1 transforms pulses [1, P). Both have length L = P-1,
// so there are L Doppler bins. For Doppler bin d the space-time snapshot at
// range gate r stacks the per-channel outputs of the staggers.
//
// Doppler bins whose normalised Doppler lies inside the clutter notch are
// "hard": their adaptive problem uses both staggers (2C degrees of freedom)
// and a large training set. The remaining "easy" bins use a single stagger
// (C degrees of freedom) and light training. Weight computation estimates a
// sample covariance from training gates of the *previous* CPI (the paper's
// temporal data dependency) and solves R w = t per (bin, beam) steering
// vector. Beamforming applies w^H to every range snapshot, producing a
// (Beams x Bins x Ranges) detection cube; pulse compression correlates each
// range profile with the transmitted chirp replica, and cell-averaging CFAR
// emits detection reports.
package stap

import (
	"fmt"
	"math"
	"math/cmplx"

	"stapio/internal/cube"
	"stapio/internal/signal"
)

// Params configures the STAP processing chain.
type Params struct {
	Dims cube.Dims
	// Beams holds the normalised steering angles u = sin(theta) of the
	// receive beams formed by beamforming.
	Beams []float64
	// Window tapers the pulse dimension before Doppler filtering.
	Window signal.WindowKind
	// ClutterNotch is the half-width, in normalised Doppler (cycles/PRI),
	// of the band around zero Doppler whose bins are processed as "hard"
	// (clutter-contaminated). Bins outside are "easy".
	ClutterNotch float64
	// TrainEasy and TrainHard are the number of training range gates used
	// for the easy and hard covariance estimates.
	TrainEasy, TrainHard int
	// DiagonalLoad is the diagonal loading added to covariance estimates,
	// as a fraction of the average diagonal power.
	DiagonalLoad float64
	// Forgetting, in [0, 1), exponentially smooths the covariance
	// estimates across CPIs (R_k = f*R_{k-1} + (1-f)*Rhat_k); 0 disables
	// smoothing (per-CPI SMI, the paper's behaviour).
	Forgetting float64
	// Staggers is the number of PRI-staggered sub-CPIs (the paper's
	// modified algorithm uses 2; more staggers give the hard bins more
	// adaptive degrees of freedom at higher weight-computation cost).
	// Zero is treated as DefaultStaggers.
	Staggers int
	// PulseLen and Bandwidth describe the transmitted LFM pulse whose
	// matched filter pulse compression applies.
	PulseLen  int
	Bandwidth float64
	// CFAR configuration.
	CFAR CFARParams
}

// CFARParams configures CFAR detection along range.
type CFARParams struct {
	// Kind selects the noise estimator (CA, GOCA, SOCA, OS); the zero
	// value is classic cell averaging.
	Kind CFARKind
	// Guard is the number of guard cells on each side of the cell under
	// test.
	Guard int
	// Window is the number of averaging cells on each side beyond the
	// guards.
	Window int
	// ThresholdDB is the detection threshold over the estimated noise
	// level, in dB.
	ThresholdDB int
}

// DefaultParams returns processing parameters for dims with three beams
// and moderate training, suitable for tests and the examples.
func DefaultParams(d cube.Dims) Params {
	return Params{
		Dims:         d,
		Beams:        []float64{-0.5, 0, 0.5},
		Window:       signal.WindowHann,
		ClutterNotch: 0.1,
		TrainEasy:    max(2*d.Channels, 8),
		TrainHard:    max(4*d.Channels, 16),
		DiagonalLoad: 0.05,
		PulseLen:     max(d.Ranges/16, 1),
		Bandwidth:    0.8,
		CFAR:         CFARParams{Guard: 2, Window: 8, ThresholdDB: 12},
	}
}

// Validate checks parameter consistency.
func (p *Params) Validate() error {
	if !p.Dims.Valid() {
		return fmt.Errorf("stap: invalid dims %v", p.Dims)
	}
	if p.Staggers < 0 {
		return fmt.Errorf("stap: negative stagger count %d", p.Staggers)
	}
	if k := p.StaggerCount(); p.Dims.Pulses < k+1 {
		return fmt.Errorf("stap: %d staggers need at least %d pulses, have %d",
			k, k+1, p.Dims.Pulses)
	}
	if len(p.Beams) == 0 {
		return fmt.Errorf("stap: no beams configured")
	}
	for i, u := range p.Beams {
		if u < -1 || u > 1 {
			return fmt.Errorf("stap: beam %d angle %v outside [-1,1]", i, u)
		}
	}
	if p.ClutterNotch < 0 || p.ClutterNotch > 0.5 {
		return fmt.Errorf("stap: clutter notch %v outside [0, 0.5]", p.ClutterNotch)
	}
	if p.TrainEasy < 1 || p.TrainHard < 1 {
		return fmt.Errorf("stap: training sizes must be >= 1 (easy %d, hard %d)", p.TrainEasy, p.TrainHard)
	}
	if p.TrainEasy > p.Dims.Ranges || p.TrainHard > p.Dims.Ranges {
		return fmt.Errorf("stap: training sizes (%d, %d) exceed range gates %d",
			p.TrainEasy, p.TrainHard, p.Dims.Ranges)
	}
	if p.DiagonalLoad < 0 {
		return fmt.Errorf("stap: negative diagonal loading %v", p.DiagonalLoad)
	}
	if p.Forgetting < 0 || p.Forgetting >= 1 {
		return fmt.Errorf("stap: forgetting factor %v outside [0, 1)", p.Forgetting)
	}
	if p.PulseLen < 1 || p.PulseLen > p.Dims.Ranges {
		return fmt.Errorf("stap: pulse length %d outside [1, %d]", p.PulseLen, p.Dims.Ranges)
	}
	if p.Bandwidth <= 0 || p.Bandwidth > 1 {
		return fmt.Errorf("stap: bandwidth %v outside (0, 1]", p.Bandwidth)
	}
	if p.CFAR.Guard < 0 || p.CFAR.Window < 1 {
		return fmt.Errorf("stap: invalid CFAR geometry guard=%d window=%d", p.CFAR.Guard, p.CFAR.Window)
	}
	if 2*(p.CFAR.Guard+p.CFAR.Window)+1 > p.Dims.Ranges {
		return fmt.Errorf("stap: CFAR window spans %d cells, more than %d range gates",
			2*(p.CFAR.Guard+p.CFAR.Window)+1, p.Dims.Ranges)
	}
	return nil
}

// DefaultStaggers is the paper's stagger count (the modified PRI-staggered
// post-Doppler algorithm stacks two sub-CPIs).
const DefaultStaggers = 2

// StaggerCount returns the effective number of staggers (>= 1), treating
// the zero value as DefaultStaggers.
func (p *Params) StaggerCount() int {
	if p.Staggers < 1 {
		return DefaultStaggers
	}
	return p.Staggers
}

// Bins returns the number of Doppler bins: the staggered sub-CPI length
// P - K + 1 for K staggers.
func (p *Params) Bins() int { return p.Dims.Pulses - p.StaggerCount() + 1 }

// BinDoppler returns the normalised Doppler frequency of bin d in
// [-0.5, 0.5).
func (p *Params) BinDoppler(d int) float64 {
	l := p.Bins()
	f := float64(d) / float64(l)
	if f >= 0.5 {
		f -= 1
	}
	return f
}

// BinForDoppler returns the Doppler bin whose centre frequency is closest
// to fd (cycles/PRI, in [-0.5, 0.5)).
func (p *Params) BinForDoppler(fd float64) int {
	l := p.Bins()
	d := int(math.Round(fd*float64(l)+float64(l))) % l
	return d
}

// IsHard reports whether Doppler bin d is in the hard (clutter) set.
func (p *Params) IsHard(d int) bool {
	return math.Abs(p.BinDoppler(d)) <= p.ClutterNotch
}

// EasyBins and HardBins return the bin index sets.
func (p *Params) EasyBins() []int { return p.binsWhere(false) }

// HardBins returns the hard (clutter-notch) bin indices.
func (p *Params) HardBins() []int { return p.binsWhere(true) }

func (p *Params) binsWhere(hard bool) []int {
	var out []int
	for d := 0; d < p.Bins(); d++ {
		if p.IsHard(d) == hard {
			out = append(out, d)
		}
	}
	return out
}

// DoF returns the adaptive degrees of freedom for bin d: Channels for easy
// bins, StaggerCount()*Channels for hard bins.
func (p *Params) DoF(d int) int {
	if p.IsHard(d) {
		return p.StaggerCount() * p.Dims.Channels
	}
	return p.Dims.Channels
}

// Steering returns the space(-time) steering vector for beam angle u at
// Doppler bin d, with length DoF(d). For hard bins stagger k is
// phase-advanced by k PRIs of the bin's Doppler (the target phase
// progression between staggered sub-CPIs).
func (p *Params) Steering(u float64, d int) []complex128 {
	out := make([]complex128, p.DoF(d))
	p.SteeringInto(out, u, d)
	return out
}

// SteeringInto writes Steering(u, d) into dst, which must hold DoF(d)
// elements.
func (p *Params) SteeringInto(dst []complex128, u float64, d int) {
	n := p.Dims.Channels
	signal.SteeringVectorInto(dst[:n], u)
	if !p.IsHard(d) {
		return
	}
	// Stagger st is the spatial vector in dst[:n] times rot^st. Filling
	// from the last stagger down reads dst[:n] before stagger 0 overwrites
	// it; each phase is built by the same st multiplications as ever, so
	// the vector is bit-identical.
	rot := cmplx.Exp(complex(0, 2*math.Pi*p.BinDoppler(d)))
	for st := p.StaggerCount() - 1; st >= 0; st-- {
		phase := complex(1, 0)
		for j := 0; j < st; j++ {
			phase *= rot
		}
		for i := 0; i < n; i++ {
			dst[st*n+i] = dst[i] * phase
		}
	}
}

// Replica returns the matched-filter kernel used by pulse compression.
func (p *Params) Replica() []complex128 {
	return signal.MatchedFilter(signal.LFMChirp(p.PulseLen, p.Bandwidth))
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
