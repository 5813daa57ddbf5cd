// Package tcpmodel implements the analytic TCP congestion-control model of
// FLoc (paper Section IV-A and V-B.1): the relations between a persistent
// TCP flow's peak congestion window, its round-trip time, its fair
// bandwidth share, and the token-bucket parameters that guarantee that
// bandwidth to the flow aggregate of a path identifier.
//
// Units: bandwidth is a units.PacketsPerSec, RTT is in seconds, and
// windows are in packets. Converting to bits per second is the caller's
// business (units.PacketsPerSec.Bits).
package tcpmodel

import (
	"fmt"
	"math"

	"floc/internal/units"
)

// Epsilon is the bucket-increase factor of Eq. (IV.3). The paper sets it to
// sqrt(12), which bounds the peak aggregate token request of i.i.d.
// uniform-window flows with probability 99.77%.
const Epsilon = 3.4641016151377544 // sqrt(12)

// PeakWindow returns the peak congestion window W_i (packets) of a
// persistent TCP flow whose long-run throughput is bw packets/s at
// round-trip time rtt seconds.
//
// The model (paper Fig. 4) treats the window as uniform on [W/2, W], so the
// average window is (3/4)W and bw = (3/4)*W/RTT, giving W = 4*bw*RTT/3.
//
// Paper §IV-A: W = 4*c*RTT/3.
func PeakWindow(bw units.PacketsPerSec, rtt float64) float64 {
	if bw <= 0 || rtt <= 0 {
		return 0
	}
	return 4 * float64(bw) * rtt / 3
}

// FlowBandwidth is the inverse of PeakWindow: the throughput in packets/s
// of a persistent TCP flow with peak window w packets and round-trip time
// rtt seconds.
//
// Paper §IV-A: c = 3*W/(4*RTT).
func FlowBandwidth(w, rtt float64) units.PacketsPerSec {
	if rtt <= 0 {
		return 0
	}
	return units.PacketsPerSec(3 * w / (4 * rtt))
}

// Params are the token-bucket parameters computed for one path identifier.
type Params struct {
	// Period is the token generation period T_Si in seconds (Eq. IV.1).
	Period float64
	// Bucket is the ideal bucket size N_Si in tokens (packets), Eq. (IV.2).
	Bucket float64
	// BucketBurst is the burst-tolerant size N'_Si >= Bucket (Eq. IV.3)
	// used in congested (non-flooding) mode.
	BucketBurst float64
	// Window is the per-flow peak window W_i implied by the fair share.
	Window float64
	// RefMTD is the reference mean-time-to-drop n_i*T_Si of a legitimate
	// flow of this path.
	RefMTD float64
}

// Compute derives the token-bucket parameters for a path identifier S_i
// that is guaranteed bandwidth c packets/s, carries n persistent TCP flows,
// and has average round-trip time rtt seconds.
//
// Derivation (paper Eqs. IV.1-IV.3): each flow's fair share is c/n, so its
// peak window is W = 4*(c/n)*rtt/3 and its mean time to drop is
// (W/2)*rtt. Spreading the n flows' drops uniformly gives the token period
// T = (W/2)*rtt/n = (2/3)*c*rtt^2/n^2 and the ideal bucket N = c*T. The
// burst-tolerant bucket is N' = (1 + Epsilon*sigma/mu)*N where sigma/mu is
// the coefficient of variation of the aggregate window of n i.i.d.
// uniform-[W/2, W] flows: (W/(4*sqrt(3)))*sqrt(n) / (n*(3/4)*W) =
// 1/(3*sqrt(3*n))... i.e. cv = 1/(sqrt(3*n) * ... ) — computed exactly
// below from the two moments rather than a collapsed constant.
//
// Paper Eqs. IV.1–IV.3.
func Compute(c units.PacketsPerSec, n int, rtt float64) (Params, error) {
	if c <= 0 {
		return Params{}, fmt.Errorf("tcpmodel: non-positive bandwidth %v", c)
	}
	if n <= 0 {
		return Params{}, fmt.Errorf("tcpmodel: non-positive flow count %d", n)
	}
	if rtt <= 0 {
		return Params{}, fmt.Errorf("tcpmodel: non-positive RTT %v", rtt)
	}
	nf := float64(n)
	w := PeakWindow(units.PacketsPerSec(float64(c)/nf), rtt)
	// The window climbs W/2 packets between drops, one packet per RTT, so
	// a congestion epoch is W/2 RTTs; n flows spread their drops over it.
	epochRTTs := w / 2
	period := epochRTTs * rtt / nf // == (2/3)*c*rtt^2/n^2
	bucket := c.Times(units.Seconds(period))

	// Coefficient of variation of the aggregate window request:
	// per-flow mean (3/4)W, per-flow sd W/(4*sqrt(3)); i.i.d. sum over n.
	muW := 0.75 * w
	sigmaW := w / (4 * math.Sqrt(3))
	cv := (sigmaW * math.Sqrt(nf)) / (muW * nf)
	burst := (1 + Epsilon*cv) * bucket

	return Params{
		Period:      period,
		Bucket:      bucket,
		BucketBurst: burst,
		Window:      w,
		RefMTD:      nf * period,
	}, nil
}

// SyncBucketFactor returns the bucket-size multiplier required to avoid
// link under-utilization when all n flows are fully synchronized: the paper
// shows that only 3/4 of generated tokens are consumable, so the bucket
// must grow by 1/3 (factor 4/3).
func SyncBucketFactor() float64 { return 4.0 / 3.0 }

// DropRatio returns gamma_Si, the expected fraction of a path's packets
// that are dropped when its flows run steady-state TCP congestion
// avoidance with peak window w (paper Section V-B.1):
//
//	gamma = 8 / (3*W*(W+2))
//
// One drop per congestion epoch over the (3/8)W(W+2) packets sent while
// the window climbs from W/2 to W.
//
// Paper §V-B.1: gamma = 8/(3*W*(W+2)).
func DropRatio(w float64) float64 {
	if w <= 0 {
		return 1
	}
	return 8 / (3 * w * (w + 2))
}

// WindowFromDropRatio inverts DropRatio: given an observed drop ratio
// gamma, it returns the implied steady-state peak window (the positive root
// of 3*gamma*W^2 + 6*gamma*W - 8 = 0).
//
// Paper §V-B.1, inverted.
func WindowFromDropRatio(gamma float64) float64 {
	if gamma <= 0 {
		return math.Inf(1)
	}
	if gamma >= 1 {
		return smallestWindow
	}
	w := (-6*gamma + math.Sqrt(36*gamma*gamma+96*gamma)) / (6 * gamma)
	if w < smallestWindow {
		return smallestWindow
	}
	return w
}

// smallestWindow is the minimum meaningful TCP window (packets).
const smallestWindow = 1

// DropRate returns delta_Si, the packet drop rate (drops/s) of a path
// aggregate with request rate lambda packets/s and drop ratio gamma.
//
// Paper §V-B.1: delta = lambda*gamma.
func DropRate(lambda units.PacketsPerSec, gamma float64) units.PacketsPerSec {
	if lambda <= 0 || gamma <= 0 {
		return 0
	}
	return units.PacketsPerSec(float64(lambda) * gamma)
}

// EstimateFlows estimates the number of TCP flows n_i sharing a path's
// bandwidth c packets/s at round-trip time rtt, given the steady-state peak
// window w inferred from the observed drop ratio: n = 4*c*rtt/(3*W).
// This is the router's scalable flow-counting primitive (Section V-B.1):
// it requires only the aggregate drop ratio, not per-flow state.
//
// Paper §V-B.1: n = 4*c*RTT/(3*W).
func EstimateFlows(c units.PacketsPerSec, rtt, w float64) float64 {
	if w <= 0 {
		return 0
	}
	return 4 * float64(c) * rtt / (3 * w)
}

// MTD returns the mean time to drop of a flow with peak window w and
// round-trip time rtt: (W/2)*RTT (one drop per half-window of RTTs). An
// MTD is a duration: non-positive or non-finite inputs yield 0, never a
// negative time.
//
// Paper §IV-B: MTD = W/2 * RTT.
func MTD(w, rtt float64) float64 {
	if w <= 0 || rtt <= 0 {
		return 0
	}
	epochRTTs := w / 2 // one packet of window growth per RTT
	return epochRTTs * rtt
}

// SyncMode describes the degree of synchronization of a path's TCP flows,
// used by the Fig. 4 model illustration and by the bucket-sizing analysis.
type SyncMode int

// Synchronization degrees considered by the paper (Fig. 4).
const (
	// Unsynchronized flows have peak windows uniformly staggered in time.
	Unsynchronized SyncMode = iota + 1
	// Synchronized flows all peak and halve together.
	Synchronized
	// PartiallySynchronized flows drift in and out of phase.
	PartiallySynchronized
)

// String implements fmt.Stringer.
func (m SyncMode) String() string {
	switch m {
	case Unsynchronized:
		return "unsynchronized"
	case Synchronized:
		return "synchronized"
	case PartiallySynchronized:
		return "partially-synchronized"
	default:
		return fmt.Sprintf("SyncMode(%d)", int(m))
	}
}

// AggregateRequest returns the instantaneous aggregate window (token
// request, in packets) of n flows with peak window w at normalized epoch
// phase t in [0, 1) under the given synchronization mode. One epoch is the
// W/2 RTTs between a flow's drops; phase advances linearly with time.
//
// The curves correspond to the lower graphs of paper Fig. 4.
func AggregateRequest(mode SyncMode, n int, w float64, t float64) float64 {
	t -= math.Floor(t)
	nf := float64(n)
	switch mode {
	case Synchronized:
		// Every window climbs together from W/2 to W.
		return nf * (w/2 + w/2*t)
	case Unsynchronized:
		// Phases uniformly staggered: the sum is flat at the mean.
		return nf * 0.75 * w
	case PartiallySynchronized:
		// Half the flows in phase, half staggered: fluctuates with half
		// the synchronized amplitude around the mean.
		sync := nf / 2 * (w/2 + w/2*t)
		flat := nf / 2 * 0.75 * w
		return sync + flat
	default:
		return 0
	}
}

// UtilizationUnderSync returns the fraction of generated tokens consumed
// when the bucket holds exactly N_Si tokens per period, for each
// synchronization mode: 1.0 when unsynchronized, 3/4 when fully
// synchronized (paper Fig. 4 shaded area).
func UtilizationUnderSync(mode SyncMode) float64 {
	switch mode {
	case Synchronized:
		return 0.75
	case PartiallySynchronized:
		return 0.875
	default:
		return 1.0
	}
}
