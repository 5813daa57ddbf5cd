package core

import (
	"math"

	"floc/internal/capability"
	"floc/internal/dropfilter"
	"floc/internal/invariant"
	"floc/internal/netsim"
	"floc/internal/pathid"
	"floc/internal/rng"
	"floc/internal/stats"
	"floc/internal/tcpmodel"
	"floc/internal/telemetry"
	"floc/internal/tokenbucket"
	"floc/internal/units"
)

// Mode is the router's queue operating mode (paper Section V-A). The
// set is closed: switches over it must be exhaustive.
//
//floc:enum
type Mode uint8

// Queue modes.
const (
	// ModeUncongested: Q_curr <= Q_min; all packets serviced.
	ModeUncongested Mode = iota + 1
	// ModeCongested: Q_min < Q_curr <= Q_max; token buckets with burst
	// size N' and neutral random-threshold drops.
	ModeCongested
	// ModeFlooding: Q_curr > Q_max; strict token buckets with size N.
	ModeFlooding
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeUncongested:
		return "uncongested"
	case ModeCongested:
		return "congested"
	case ModeFlooding:
		return "flooding"
	default:
		return "unknown"
	}
}

// DropReason classifies router drops, for instrumentation. The set is
// closed: switches over it must be exhaustive, and the label table in
// report.go is sized by numDropReasons so a new reason cannot ship
// without a label.
//
//floc:enum
type DropReason uint8

// Drop reasons.
const (
	// DropNoToken: token bucket empty in flooding mode.
	DropNoToken DropReason = iota
	// DropRandomThreshold: congested-mode neutral random drop.
	DropRandomThreshold
	// DropPreferential: attack-flow preferential drop (Eq. IV.5 / V.1).
	DropPreferential
	// DropBlocked: flow exceeded BlockExcess and is blocked outright.
	DropBlocked
	// DropOverflow: physical buffer full.
	DropOverflow
	numDropReasons //floc:enumbound
)

// flowKey is a flow's accounting identity: with NMax > 0 the id is the
// capability fan-out slot (covert flows collapse), otherwise the
// destination address.
type flowKey struct {
	src uint32
	id  uint32
}

// flowState is the per-active-flow record of the (non-scalable) exact
// tracking mode. It holds no pointers and lives by value in its path's
// flowTable slab, so a flow costs the garbage collector nothing.
type flowState struct {
	lastSeen float64
	synAt    float64
	hash     uint64

	// admitted and arrived count tokens admitted/offered this control
	// interval; admittedRate and arrivedRate are the smoothed rates
	// (tokens/second). The arrival rate upper-bounds attack-path flows at
	// their fair share (Eq. IV.5's stated aim) and classifies attack
	// flows for the conformance measure.
	admitted     float64
	arrived      float64
	admittedRate float64
	arrivedRate  float64

	// escalation grows while the flow keeps offering more than its fair
	// share interval after interval — the paper's "aggressively
	// penalizes the flows whose MTDs keep decreasing (i.e., flows that
	// do not respond to packet drops)" — and decays once the flow
	// responds. Effective fair share = fair / escalation.
	escalation float64

	awaitingData bool
	// attackFlagged tracks the last classification verdict so telemetry
	// emits FlowClassifiedAttack only on the transition into attack.
	attackFlagged bool
}

// offeredRate returns the flow's best current estimate of its send rate
// in tokens/second.
func (fs *flowState) offeredRate(controlInterval float64) float64 {
	rate := fs.arrivedRate
	if cur := fs.arrived / controlInterval; cur > rate {
		rate = cur
	}
	return rate
}

// pathState holds everything the router knows about one path identifier —
// an origin (leaf) path, or an aggregate created by path aggregation.
type pathState struct {
	key string
	id  pathid.PathID
	// handle is the path's dense pathTable handle (0 for overflow paths
	// and aggregates).
	handle uint32
	leaf   *pathid.Node

	// members is non-nil for aggregates: the origin paths merged into it.
	members []*pathState
	// aggregate is non-nil on an origin path that has been aggregated.
	aggregate *pathState
	// shares is the number of equal bandwidth shares allocated (1 for
	// origin paths and attack aggregates; len(members) for legitimate
	// aggregates).
	shares int

	bucket      *tokenbucket.Bucket
	params      tcpmodel.Params
	bucketFlood bool    // bucket currently sized N (flooding) vs N' (congested)
	alloc       float64 // guaranteed bandwidth, packets/s

	rtt         *stats.EWMA
	conformance float64
	attack      bool

	flows       flowTable
	attackFlows int

	// Interval measurement (reset each control tick).
	arrivedTokens float64
	drops         int
	lambda        float64 // smoothed request rate, tokens/s

	// Previous interval's measurements, stashed by recomputeParams for
	// the telemetry recorder before the live counters reset.
	intervalArrived float64
	intervalDrops   int

	// Cumulative per-origin-path counters (always maintained; cheap).
	admittedPkts int64
	droppedPkts  int64

	createdAt float64
}

// effective returns the path identifier that owns this path's bucket.
func (p *pathState) effective() *pathState {
	if p.aggregate != nil {
		return p.aggregate
	}
	return p
}

// flowCount returns the number of live flows (aggregates sum members).
func (p *pathState) flowCount() int {
	if p.members == nil {
		return p.flows.len()
	}
	n := 0
	for _, m := range p.members {
		n += m.flows.len()
	}
	return n
}

// Router is the FLoc router subsystem, attached to the flooded link as its
// queue discipline. Like the simulator it plugs into, it is
// single-threaded: not safe for concurrent use.
type Router struct {
	cfg Config
	rng *rng.Source

	fifo *netsim.FIFO
	qmin float64
	qmax float64

	tree    *pathid.Tree
	origins *pathTable            // origin paths, handle-indexed
	aggs    map[string]*pathState // by aggregate key

	filter *dropfilter.Filter
	issuer *capability.Issuer
	acct   *capability.Accountant
	slots  slotTable // capability slot cache

	lastControl float64
	controlRuns int
	planSig     string
	order       pathOrder     // see sortedPaths
	tally       flowTally     // last control run's flow counts
	flagged     []flaggedFlow // controlFlows scratch, reused across runs

	dropCounts [numDropReasons]int64
	admitted   int64
	arrived    int64
	epochFloor float64

	// Observability (see telemetry.go). tel/met are nil when detached;
	// lastMode backs the ModeChanged event edge detector.
	tel      *telemetry.Telemetry
	met      *routerMetrics
	lastMode Mode
	delayQ   timeQueue
}

var _ netsim.Discipline = (*Router)(nil)

// NewRouter builds a FLoc router from cfg.
func NewRouter(cfg Config) (*Router, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	filter, err := dropfilter.New(cfg.Filter)
	if err != nil {
		return nil, err
	}
	var issuer *capability.Issuer
	var acct *capability.Accountant
	if cfg.NMax > 0 {
		issuer, err = capability.NewIssuer(cfg.Secret, cfg.NMax)
		if err != nil {
			return nil, err
		}
		acct = capability.NewAccountant(cfg.NMax)
	}
	qmin := cfg.QMinFrac * float64(cfg.Capacity)
	return &Router{
		cfg:        cfg,
		rng:        rng.New(cfg.Seed),
		fifo:       netsim.NewFIFO(cfg.Capacity),
		qmin:       qmin,
		qmax:       float64(cfg.Capacity),
		lastMode:   ModeUncongested,
		tree:       pathid.NewTree(cfg.RouterAS),
		origins:    newPathTable(),
		aggs:       map[string]*pathState{},
		filter:     filter,
		issuer:     issuer,
		acct:       acct,
		epochFloor: 2 * cfg.Filter.TickSeconds,
	}, nil
}

// Mode returns the current queue mode.
func (r *Router) Mode() Mode {
	q := float64(r.fifo.Len())
	switch {
	case q <= r.qmin:
		return ModeUncongested
	case q <= r.qmax:
		return ModeCongested
	default:
		return ModeFlooding
	}
}

// Drops returns the drop count for a reason.
func (r *Router) Drops(reason DropReason) int64 {
	if reason >= numDropReasons {
		return 0
	}
	return r.dropCounts[reason]
}

// TotalDrops returns all drops.
func (r *Router) TotalDrops() int64 {
	var t int64
	for _, c := range r.dropCounts {
		t += c
	}
	return t
}

// Admitted returns the number of admitted packets.
func (r *Router) Admitted() int64 { return r.admitted }

// ControlRuns returns how many control-loop executions have happened.
func (r *Router) ControlRuns() int { return r.controlRuns }

// acctKey computes a packet's flow accounting identity and hash. One
// FlowHash per packet: in capability mode the slot table caches the
// pre-salted accounting hash alongside the slot.
func (r *Router) acctKey(pkt *netsim.Packet) (flowKey, uint64) {
	if r.issuer == nil {
		k := flowKey{src: pkt.Src, id: pkt.Dst}
		return k, dropfilter.FlowHash(k.src, k.id)
	}
	fid := pkt.Flow()
	h := dropfilter.FlowHash(fid.Src, fid.Dst)
	slot, salted, ok := r.slots.get(h, fid)
	if !ok {
		slot, salted = r.openSlot(pkt, fid, h)
	}
	return flowKey{src: pkt.Src, id: slot}, salted
}

// openSlot issues a capability for a flow's first packet and caches its
// fan-out slot plus the salted accounting hash (salted so slot ids don't
// collide with destination addresses).
// Capability issue happens once per flow, not per packet.
func (r *Router) openSlot(pkt *netsim.Packet, fid netsim.FlowID, h uint64) (uint32, uint64) {
	c := r.issuer.Issue(pkt.Src, pkt.Dst, pkt.Path)
	slot := uint32(c.Slot)
	salted := dropfilter.FlowHash(pkt.Src, slot^0x5a5a5a5a)
	r.slots.put(h, fid, slot, salted)
	r.acct.Open(pkt.Src, c)
	return slot, salted
}

// InternPath binds path to this router's dense integer handle and returns
// it (0 when the dense handle space is exhausted; such paths simply keep
// using string keys). Producers stamp the handle into Packet.PathHandle
// so steady-state admission needs no hashing at all. No path state is
// created: that stays lazy, on the first packet.
// Interning happens once per path per producer.
func (r *Router) InternPath(path pathid.PathID) uint32 {
	return r.origins.intern(path.Key())
}

// origin returns (creating if necessary) the origin path state for pkt.
// Resolution order: dense handle (no hashing), then the cold miss path
// (packets that carry no handle: simulator sources and tests).
func (r *Router) origin(pkt *netsim.Packet, now float64) *pathState {
	if h := pkt.PathHandle; h != 0 {
		if ps := r.origins.byHandle(h); ps != nil {
			if invariant.Hot && pkt.PathKey != "" {
				invariant.True("core.handle.binding", ps.key == pkt.PathKey)
			}
			return ps
		}
	}
	return r.originMiss(pkt, now)
}

// originMiss is origin's slow path: packets without a handle (probed by
// key, rendered first if the packet carries none) and the first packet of
// a path (which builds its state).
// Key rendering and path-state creation happen off the keyed fast path.
func (r *Router) originMiss(pkt *netsim.Packet, now float64) *pathState {
	key := pkt.PathKey
	if key == "" {
		key = pkt.Path.Key()
	}
	if ps := r.origins.lookup(key); ps != nil {
		return ps
	}
	leaf, err := r.tree.Insert(pkt.Path)
	if err != nil {
		// Unmarked packet: account it under a synthetic unknown path.
		leaf, _ = r.tree.Insert(pathid.New(0))
		key = pathid.New(0).Key()
		if ps := r.origins.lookup(key); ps != nil {
			return ps
		}
	}
	ps := &pathState{
		key:         key,
		id:          pkt.Path,
		leaf:        leaf,
		shares:      1,
		rtt:         stats.NewEWMA(0.3),
		conformance: 1.0,
		createdAt:   now,
	}
	leaf.Conformance = 1.0
	bucket, _ := tokenbucket.New(r.cfg.ControlInterval, math.Max(1, r.cfg.linkRatePackets().Times(units.Seconds(r.cfg.ControlInterval))))
	ps.bucket = bucket
	ps.params = tcpmodel.Params{Period: r.cfg.ControlInterval, RefMTD: r.cfg.DefaultRTT}
	r.origins.put(key, ps)
	r.order.valid = false
	return ps
}

// Enqueue implements netsim.Discipline: the FLoc packet admission policy.
// The queue-mode edge detector runs inside admit's and drop's telemetry
// blocks — every packet ends in exactly one of the two — so it sees the
// post-decision queue length without a wrapper call on the hot path.
func (r *Router) Enqueue(pkt *netsim.Packet, now float64) bool {
	if now-r.lastControl >= r.cfg.ControlInterval {
		r.runControl(now)
	}
	r.arrived++

	orig := r.origin(pkt, now)
	eff := orig.effective()

	// Flow accounting and RTT measurement on the origin path.
	key, hash := r.acctKey(pkt)
	fs := orig.flows.get(hash, key)
	if fs == nil {
		fs = orig.flows.put(hash, key)
	}
	fs.lastSeen = now
	//floc:nonexhaustive RTT sampling keys on SYN and first forward data; SYNACK/ACK travel the reverse path and never reach this router's measurement
	switch pkt.Kind {
	case netsim.KindSYN:
		fs.synAt = now
		fs.awaitingData = true
	case netsim.KindData, netsim.KindUDP:
		if fs.awaitingData {
			if sample := now - fs.synAt; sample > 0 {
				orig.rtt.Add(sample)
			}
			fs.awaitingData = false
		}
	}

	// One token admits one reference packet (Section III-D): a packet
	// costs its size in reference packets.
	tokens := float64(pkt.Size) / float64(r.cfg.PacketSize)
	if invariant.Hot {
		invariant.Positive("core.pkt.tokens", tokens)
	}
	eff.arrivedTokens += tokens
	if pkt.Kind == netsim.KindData || pkt.Kind == netsim.KindUDP {
		fs.arrived += tokens
	}

	qcur := float64(r.fifo.Len())

	// Early congested-mode entry for over-subscribing paths: the
	// uncongested threshold shrinks by min(1, C/lambda).
	qminEff := r.qmin
	if eff.lambda > 0 && eff.alloc > 0 && eff.lambda > eff.alloc {
		qminEff = r.qmin * (eff.alloc / eff.lambda)
	}

	if qcur <= qminEff {
		return r.admit(pkt, orig, eff, fs, tokens, now)
	}

	flooding := qcur > r.qmax
	r.sizeBucket(eff, flooding)

	// Preferential filtering of attack flows happens before token
	// consumption (Eq. IV.5): a preferentially dropped packet must not
	// waste a token that a legitimate flow of the same path could use.
	if r.preferentialDrop(pkt, orig, eff, fs, now) {
		return false
	}

	if flooding {
		if !eff.bucket.Take(now, tokens) {
			r.drop(pkt, orig, eff, fs, now, DropNoToken)
			return false
		}
		return r.admit(pkt, orig, eff, fs, tokens, now)
	}

	// Congested mode.
	if eff.bucket.Take(now, tokens) {
		return r.admit(pkt, orig, eff, fs, tokens, now)
	}
	// No token. The neutral random-threshold policy exists to spare
	// conforming flows unnecessary drops caused by under-estimated
	// token-bucket parameters (Section V-A). Flows of identified attack
	// paths that exceed their fair share get strict bucket enforcement
	// instead ("the activation of the token-bucket mechanism for attack
	// path identifiers early ... causes them to experience packet drops
	// before legitimate ones"); conforming flows within attack paths keep
	// the lenient policy, which is what lets a collapsed legitimate flow
	// climb back (no collateral damage).
	if eff.attack && fs.offeredRate(r.cfg.ControlInterval) > r.fairShare(eff) {
		r.drop(pkt, orig, eff, fs, now, DropNoToken)
		return false
	}
	qth := r.qmin + r.rng.Float64()*(r.qmax-r.qmin)
	if qcur > qth {
		r.drop(pkt, orig, eff, fs, now, DropRandomThreshold)
		return false
	}
	return r.admit(pkt, orig, eff, fs, tokens, now)
}

// sizeBucket switches a path's bucket between N' (congested) and N
// (flooding) as the router mode changes.
func (r *Router) sizeBucket(eff *pathState, flooding bool) {
	if eff.bucketFlood == flooding {
		return
	}
	eff.bucketFlood = flooding
	size := eff.params.BucketBurst
	if flooding {
		size = eff.params.Bucket
	}
	if size <= 0 || eff.params.Period <= 0 {
		return
	}
	period, size := normalizeBucket(eff.params.Period, size)
	_ = eff.bucket.SetParams(period, size)
}

// minBucketTokens is the smallest usable bucket: it must fit the largest
// packet (a 1500-byte packet costs 1.5 reference tokens), or that packet
// could never be admitted under strict token enforcement.
const minBucketTokens = 2

// normalizeBucket floors the bucket at minBucketTokens while preserving
// the admitted rate (size/period) by stretching the period with it.
func normalizeBucket(period, size float64) (outPeriod, outSize float64) {
	if size >= minBucketTokens {
		return period, size
	}
	scale := minBucketTokens / size
	return period * scale, minBucketTokens
}

// preferentialDrop applies the attack-flow preferential drop policy
// (Eq. IV.5 with the Section V-B drop-record filter). It returns true if
// the packet was dropped.
func (r *Router) preferentialDrop(pkt *netsim.Packet, orig, eff *pathState, fs *flowState, now float64) bool {
	if r.cfg.DisablePreferentialDrop {
		return false
	}
	if !eff.attack || (pkt.Kind != netsim.KindData && pkt.Kind != netsim.KindUDP) {
		return false
	}
	st := r.filter.Query(fs.hash, now, r.epoch(eff), r.filterK(eff))
	if r.cfg.BlockExcess > 0 && st.Excess() >= r.cfg.BlockExcess {
		r.drop(pkt, orig, eff, fs, now, DropBlocked)
		return true
	}
	p := st.PrefDropProb()
	// Fair-share upper bound (Eq. IV.5's aim: "upper bound their
	// throughput by their fair bandwidth allocation"): a flow of an
	// attack path whose offered rate exceeds its within-path fair share
	// is dropped with exactly the probability that pins its admitted
	// rate there. A responsive flow's rate falls below fair, its penalty
	// goes to zero, so misidentification never denies service.
	if fair := r.fairShare(eff); fair > 0 {
		if rate := fs.offeredRate(r.cfg.ControlInterval); rate > fair {
			esc := fs.escalation
			if esc < 1 {
				esc = 1
			}
			if p2 := 1 - fair/(esc*rate); p2 > p {
				p = p2
			}
		}
	}
	if invariant.Hot {
		// The combined preferential drop probability (Eq. IV.5 / V.1 plus
		// the fair-share bound) must remain a probability.
		invariant.Conformance01("core.prefdrop", p)
	}
	if p > 0 && r.rng.Float64() < p {
		r.drop(pkt, orig, eff, fs, now, DropPreferential)
		return true
	}
	return false
}

// fairShare returns the per-flow fair bandwidth (tokens/second) of a
// path identifier, floored at one packet per RTT: a responsive flow
// cannot run below that, so the penalty machinery never demands it.
func (r *Router) fairShare(eff *pathState) float64 {
	n := eff.flowCount()
	if n < 1 {
		n = 1
	}
	fair := eff.alloc / float64(n)
	// A responsive flow sends at least one packet per RTT (Section IV).
	if rtt := r.rttOf(eff); rtt > 0 && fair < 1/rtt {
		fair = 1 / rtt
	}
	if invariant.Hot {
		invariant.NonNegative("core.fairshare", fair)
	}
	return fair
}

// FlowExcess returns the drop filter's excess estimate for a flow, for
// instrumentation and tests. It uses the flow's accounting identity.
func (r *Router) FlowExcess(src, dst uint32, path pathid.PathID, now float64) float64 {
	pkt := &netsim.Packet{Src: src, Dst: dst, Path: path}
	_, hash := r.acctKey(pkt)
	orig := r.origins.lookup(path.Key())
	if orig == nil {
		return 0
	}
	eff := orig.effective()
	return r.filter.Query(hash, now, r.epoch(eff), r.filterK(eff)).Excess()
}

// admit puts the packet on the physical queue and meters the flow.
func (r *Router) admit(pkt *netsim.Packet, orig, eff *pathState, fs *flowState, tokens, now float64) bool {
	if !r.fifo.Enqueue(pkt, now) {
		// Physical overflow: the effective path still pays for it.
		r.drop(pkt, orig, eff, fs, now, DropOverflow)
		return false
	}
	r.admitted++
	orig.admittedPkts++
	if fs != nil && (pkt.Kind == netsim.KindData || pkt.Kind == netsim.KindUDP) {
		fs.admitted += tokens
	}
	if telemetry.Compiled && r.tel != nil {
		r.observeAdmit(orig, fs, now)
	}
	return true
}

// observeAdmit meters an admitted packet and, when a ring or a sink will
// take it, emits its trace event. A separate method so admit's
// disabled-telemetry path pays one branch and keeps its pre-telemetry
// stack frame.
func (r *Router) observeAdmit(orig *pathState, fs *flowState, now float64) {
	// arrived == admitted + dropped, so metering it here and in drop
	// spares the admission body a separate telemetry branch per packet.
	r.met.arrived.Inc()
	r.met.admitted.Inc()
	r.delayQ.push(now)
	if r.tel.Journals() {
		var flow uint64
		if fs != nil {
			flow = fs.hash
		}
		r.tel.Emit(telemetry.Event{
			Time: now,
			Type: telemetry.EventPacketAdmitted,
			Path: orig.key,
			Flow: flow,
		})
	}
	r.noteMode(now)
}

// observeDrop meters a dropped packet and emits its trace event; the
// same frame-size consideration as observeAdmit applies.
func (r *Router) observeDrop(orig *pathState, fs *flowState, now float64, reason DropReason) {
	r.met.arrived.Inc()
	r.met.drops[reason].Inc()
	if r.tel.Journals() {
		var flow uint64
		if fs != nil {
			flow = fs.hash
		}
		r.tel.Emit(telemetry.Event{
			Time:   now,
			Type:   telemetry.EventPacketDropped,
			Path:   orig.key,
			Flow:   flow,
			Reason: reason.String(),
		})
	}
	r.noteMode(now)
}

// epoch returns a path's congestion epoch (W/2 * RTT == RefMTD) for the
// drop filter, floored to the filter tick.
func (r *Router) epoch(eff *pathState) float64 {
	e := eff.params.RefMTD
	if e < r.epochFloor {
		e = r.epochFloor
	}
	return e
}

// filterK returns the array-selection parameter for a path's flows.
func (r *Router) filterK(eff *pathState) int {
	if eff.attack && r.cfg.FilterK > 0 {
		return r.cfg.FilterK
	}
	return 0
}

// drop records a packet drop against its flow and path. Per Section V-B,
// only drops on identified attack paths enter the drop-record filter: the
// filter exists to separate attack from legitimate flows *within* attack
// paths, and keeping legitimate paths out of it both bounds its size and
// spares their flows transient mis-measurement during ordinary congestion.
//
// Preferential (and block) drops are deliberately NOT recorded. The
// token-bucket drop process is what makes a flow's drop rate proportional
// to its send rate (the premise of Eq. IV.4); feeding the preferential
// drops back into the record would spiral every penalized flow to the
// filter's saturation point and push its admitted rate far below the fair
// share, instead of converging at the paper's equilibrium
// alpha*(1-P_pd) = 1 (admitted == fair share).
func (r *Router) drop(pkt *netsim.Packet, orig, eff *pathState, fs *flowState, now float64, reason DropReason) {
	r.dropCounts[reason]++
	eff.drops++
	orig.droppedPkts++
	if telemetry.Compiled && r.tel != nil {
		r.observeDrop(orig, fs, now, reason)
	}
	if reason == DropPreferential || reason == DropBlocked {
		return
	}
	if fs == nil || !eff.attack || (pkt.Kind != netsim.KindData && pkt.Kind != netsim.KindUDP) {
		return
	}
	weight := uint32(1)
	if r.cfg.ProbabilisticUpdate {
		st := r.filter.Query(fs.hash, now, r.epoch(eff), r.filterK(eff))
		w := st.D
		if w > 1 {
			if w > 16 {
				w = 16
			}
			if r.rng.Float64() >= 1/float64(w) {
				return // sampled out; expectation preserved via weight
			}
			weight = w
		}
	}
	r.filter.RecordDrop(fs.hash, now, r.epoch(eff), r.filterK(eff), weight)
}

// Dequeue implements netsim.Discipline.
func (r *Router) Dequeue(now float64) *netsim.Packet {
	pkt := r.fifo.Dequeue(now)
	if telemetry.Compiled && r.tel != nil && pkt != nil {
		r.observeDequeue(now)
	}
	return pkt
}

// observeDequeue records the dequeued packet's queue delay and runs the
// mode-edge detector; a separate method so Dequeue's disabled-telemetry
// path stays small.
func (r *Router) observeDequeue(now float64) {
	if at := r.delayQ.pop(); !math.IsNaN(at) {
		r.met.queueDelay.Observe(now - at)
	}
	r.noteMode(now)
}

// Len implements netsim.Discipline.
func (r *Router) Len() int { return r.fifo.Len() }
