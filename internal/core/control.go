package core

import (
	"math"
	"sort"
	"strings"

	"floc/internal/invariant"
	"floc/internal/stats"
	"floc/internal/tcpmodel"
	"floc/internal/telemetry"
	"floc/internal/units"
)

// runControl is FLoc's periodic measurement and control loop: flow expiry,
// conformance updates (Eq. IV.6), aggregation (Section IV-C), token-bucket
// parameter recomputation (Eqs. IV.1-IV.3), and attack-path detection
// (Section IV-B.1).
// The periodic control loop runs once per interval, not per packet.
func (r *Router) runControl(now float64) {
	interval := now - r.lastControl
	if r.controlRuns == 0 || interval <= 0 {
		interval = r.cfg.ControlInterval
	}
	r.lastControl = now
	r.controlRuns++

	r.controlFlows(now)
	r.planAggregation(now)
	r.recomputeParams(now, interval)

	if telemetry.Compiled && r.tel != nil {
		r.sampleControl(now)
	}
}

// flowTally is what controlFlows counts while it visits every flow, for
// the flow gauges sampleControl publishes.
type flowTally struct {
	live    int // flows alive after expiry
	attack  int // of those, classified as attack flows
	expired int // flows expired by this run
}

// flaggedFlow is a flow newly classified as an attack flow, held until
// the run's FlowClassifiedAttack events can be emitted in sorted order.
type flaggedFlow struct {
	path string
	hash uint64
}

// controlFlows is the per-flow half of the control loop, one contiguous
// pass per path: idle flows expire and the survivors' rate meters roll
// (expirePath), then the path's flows are classified and its conformance
// advances (classifyPath) while they are still in cache. Empty idle paths
// expire with their last flow.
//
// A member of an aggregate is classified against the aggregate's fair
// share, which counts every member's flows, so members wait until all
// paths have expired theirs; every other path's verdicts depend on that
// path alone.
func (r *Router) controlFlows(now float64) {
	r.tally = flowTally{}
	r.flagged = r.flagged[:0]
	var expiredPaths []*pathState
	r.origins.each(func(ps *pathState) {
		r.expirePath(ps, now)
		if ps.flows.len() == 0 && ps.arrivedTokens == 0 && now-ps.createdAt > r.cfg.FlowTimeout {
			expiredPaths = append(expiredPaths, ps)
		} else if ps.aggregate == nil {
			r.classifyPath(ps, now)
		}
	})
	if len(expiredPaths) > 0 {
		// The walk above is unordered; sort so the trace is deterministic.
		sort.Slice(expiredPaths, func(i, j int) bool { return expiredPaths[i].key < expiredPaths[j].key })
		for _, ps := range expiredPaths {
			r.origins.remove(ps)
			r.tree.Remove(ps.id)
			if telemetry.Compiled && r.tel != nil {
				r.tel.Emit(telemetry.Event{Time: now, Type: telemetry.EventPathExpired, Path: ps.key})
			}
		}
		r.order.valid = false
	}
	if len(r.aggs) > 0 {
		r.origins.each(func(ps *pathState) {
			if ps.aggregate != nil {
				r.classifyPath(ps, now)
			}
		})
	}
	if len(r.flagged) > 0 {
		// Classification walks tables; sort (path, flow) so the trace is
		// deterministic.
		sort.Slice(r.flagged, func(i, j int) bool {
			if r.flagged[i].path != r.flagged[j].path {
				return r.flagged[i].path < r.flagged[j].path
			}
			return r.flagged[i].hash < r.flagged[j].hash
		})
		for _, f := range r.flagged {
			r.tel.Emit(telemetry.Event{
				Time: now,
				Type: telemetry.EventFlowClassifiedAttack,
				Path: f.path,
				Flow: f.hash,
			})
		}
	}
}

// expirePath drops a path's idle flows and rolls the survivors'
// admitted/arrival rate meters and escalation.
func (r *Router) expirePath(ps *pathState, now float64) {
	if ps.flows.len() == 0 {
		return
	}
	// The fair share is the path's, not the flow's: computed once, from the
	// flow counts as they stand when this path's turn comes.
	fair := r.fairShare(ps.effective())
	escalate := fair > 0 && !r.cfg.DisableEscalation
	timeout, interval := r.cfg.FlowTimeout, r.cfg.ControlInterval
	r.tally.expired += ps.flows.expire(func(fs *flowState) bool {
		if now-fs.lastSeen > timeout {
			return false
		}
		if fs.arrived == 0 && fs.admitted == 0 {
			// Silent this interval, as most flows of a large population
			// are: rollRate(0, x, interval) is 0.5*x to the bit for
			// x >= +0, without the division.
			fs.admittedRate *= 0.5
			fs.arrivedRate *= 0.5
		} else {
			fs.admittedRate = rollRate(fs.admitted, fs.admittedRate, interval)
			fs.arrivedRate = rollRate(fs.arrived, fs.arrivedRate, interval)
			fs.admitted = 0
			fs.arrived = 0
		}
		// Escalate penalties for flows that keep over-subscribing
		// their fair share; relax as soon as they respond.
		if escalate {
			if fs.arrivedRate > 1.2*fair {
				fs.escalation = math.Min(8, math.Max(1, fs.escalation)*1.25)
			} else {
				fs.escalation = math.Max(1, fs.escalation*0.7)
			}
		}
		return true
	})
	r.tally.live += ps.flows.len()
}

// rollRate folds one control interval's token count into a flow's
// smoothed rate (tokens/s).
func rollRate(tokens, rate, interval float64) float64 {
	return 0.5*(tokens/interval) + 0.5*rate
}

// classifyPath counts a path's attack flows via the drop filter and
// advances its conformance EWMA (Eq. IV.6).
//
// floc:eq IV.6
func (r *Router) classifyPath(ps *pathState, now float64) {
	eff := ps.effective()
	fair, k := r.fairShare(eff), r.filterK(eff)
	// One instant and one epoch for the whole path: quantized here, not
	// per flow inside the filter.
	nowTicks, epochTicks := r.filter.Ticks(now), r.filter.Ticks(r.epoch(eff))
	traced := telemetry.Compiled && r.tel != nil
	attack := 0
	flows := ps.flows.all()
	for i := range flows {
		fs := &flows[i]
		st := r.filter.QueryTicks(fs.hash, nowTicks, epochTicks, k)
		// A flow is an attack flow if its drop record shows excess
		// drops (Section IV-B.2) or its offered rate persistently
		// exceeds its fair share (the signal Eq. IV.5's bound acts
		// on).
		isAttack := st.Excess() >= r.cfg.AttackExcessThreshold ||
			(fair > 0 && fs.arrivedRate > 1.5*fair)
		if isAttack {
			attack++
			if traced && !fs.attackFlagged {
				r.flagged = append(r.flagged, flaggedFlow{path: ps.key, hash: fs.hash})
			}
		}
		fs.attackFlagged = isAttack
	}
	ps.attackFlows = attack
	r.tally.attack += attack
	n := len(flows)
	if n > 0 {
		sample := 1 - float64(attack)/float64(n)
		ps.conformance = r.cfg.Beta*sample + (1-r.cfg.Beta)*ps.conformance
	}
	// The conformance EWMA (Eq. IV.6) is a convex combination of values
	// in [0, 1]; leaving that interval means the measurement drifted out
	// of the modeled state space.
	invariant.Conformance01("core.conformance", ps.conformance)
	if ps.leaf != nil {
		ps.leaf.Conformance = ps.conformance
		ps.leaf.Flows = n
		ps.leaf.Attack = ps.conformance < r.cfg.EThreshold
	}
}

// rttOf returns a path's (scaled, under-estimated) RTT for parameter
// computation; aggregates use the flow-weighted mean of their members.
func (r *Router) rttOf(ps *pathState) float64 {
	raw := 0.0
	if ps.members == nil {
		if ps.rtt.Initialized() {
			raw = ps.rtt.Value()
		}
	} else {
		num, den := 0.0, 0.0
		for _, m := range ps.members {
			if !m.rtt.Initialized() {
				continue
			}
			w := math.Max(1, float64(m.flows.len()))
			num += m.rtt.Value() * w
			den += w
		}
		if den > 0 {
			raw = num / den
		}
	}
	if raw <= 0 {
		raw = r.cfg.DefaultRTT
	}
	return raw * r.cfg.RTTScale
}

// pathOrder is the router's one key-sorted view of its path set, kept
// between control runs instead of being re-collected and re-sorted by
// every consumer. Three events change what it would contain, and each
// clears valid: a path created (originMiss), paths expired (controlFlows),
// and a new aggregation plan (applyPlan).
type pathOrder struct {
	valid bool
	// origins is every live origin path, by key.
	origins []*pathState
	// guaranteed is the bandwidth-guaranteed identifiers — non-aggregated
	// origin paths plus aggregates — by key.
	guaranteed []*pathState
}

// sortedPaths returns the current path order, rebuilding it if a path
// event invalidated it.
func (r *Router) sortedPaths() *pathOrder {
	o := &r.order
	if o.valid {
		return o
	}
	byKey := func(s []*pathState) {
		sort.Slice(s, func(i, j int) bool { return s[i].key < s[j].key })
	}
	o.origins = o.origins[:0]
	r.origins.each(func(ps *pathState) { o.origins = append(o.origins, ps) })
	byKey(o.origins)
	o.guaranteed = o.guaranteed[:0]
	for _, ps := range o.origins {
		if ps.aggregate == nil {
			o.guaranteed = append(o.guaranteed, ps)
		}
	}
	if len(r.aggs) > 0 {
		for _, ps := range r.aggs {
			o.guaranteed = append(o.guaranteed, ps)
		}
		byKey(o.guaranteed)
	}
	o.valid = true
	return o
}

// GuaranteedPathCount returns the number of bandwidth-guaranteed path
// identifiers (after aggregation).
func (r *Router) GuaranteedPathCount() int { return len(r.sortedPaths().guaranteed) }

// recomputeParams refreshes every guaranteed path's bandwidth share,
// token-bucket parameters, attack-path flag, and the router's Q_max.
func (r *Router) recomputeParams(now, interval float64) {
	paths := r.sortedPaths().guaranteed
	if len(paths) == 0 {
		return
	}
	totalShares := 0
	for _, ps := range paths {
		totalShares += ps.shares
	}
	if totalShares == 0 {
		totalShares = len(paths)
	}
	linkPkts := r.cfg.linkRatePackets()
	sumBurst := 0.0

	for _, ps := range paths {
		// Smoothed request rate (tokens/second).
		rate := ps.arrivedTokens / interval
		if ps.lambda == 0 {
			ps.lambda = rate
		} else {
			ps.lambda = 0.5*rate + 0.5*ps.lambda
		}

		alloc := float64(linkPkts) * float64(ps.shares) / float64(totalShares)
		invariant.NonNegative("core.alloc", alloc)
		ps.alloc = alloc

		n := ps.flowCount()
		if r.cfg.EstimateFlows {
			n = r.estimateFlowCount(ps, alloc, interval)
		}
		if n < 1 {
			n = 1
		}
		rtt := r.rttOf(ps)
		invariant.Positive("core.rtt", rtt)
		params, err := tcpmodel.Compute(units.PacketsPerSec(alloc), n, rtt)
		if err == nil {
			// The reference mean-time-to-drop n_i*T_Si and the bucket
			// parameters derived from Eqs. IV.1-IV.3 are all positive
			// quantities for positive inputs.
			invariant.NonNegative("core.mtd", params.RefMTD)
			invariant.Positive("core.period", params.Period)
			invariant.Positive("core.bucket", params.Bucket)
			invariant.True("core.burst",
				params.BucketBurst >= params.Bucket)
			ps.params = params
			size := params.BucketBurst
			if ps.bucketFlood {
				size = params.Bucket
			}
			period, size := normalizeBucket(params.Period, size)
			_ = ps.bucket.SetParams(period, size)
		}
		sumBurst += math.Sqrt(float64(n)) * ps.params.Window

		// Attack-path detection: the aggregate's mean drop interval fell
		// below the token period while the request rate exceeds the
		// allocation plus the reference drop rate.
		// The 10% margin keeps adaptive TCP aggregates, which probe just
		// above their allocation by design, from being misflagged.
		if ps.drops > 0 && ps.params.Period > 0 {
			meanDropInterval := interval / float64(ps.drops)
			// One drop per token period is the reference drop rate
			// (Section IV-B.1), in packets/s like lambda and alloc.
			refDropRate := 1 / ps.params.Period
			overRate := ps.lambda > 1.1*alloc+refDropRate
			if meanDropInterval < ps.params.Period && overRate {
				ps.attack = true
			} else if !overRate {
				ps.attack = false
			}
		} else if ps.lambda <= alloc {
			ps.attack = false
		}
		for _, m := range ps.members {
			m.attack = ps.attack
		}

		ps.intervalArrived = ps.arrivedTokens
		ps.intervalDrops = ps.drops
		ps.arrivedTokens = 0
		ps.drops = 0
	}

	// Q_max = Q_min + sum over paths of sqrt(n_i) * W_i (Section V-A),
	// clamped to the physical buffer.
	qmax := r.qmin + sumBurst
	if qmax > float64(r.cfg.Capacity) {
		qmax = float64(r.cfg.Capacity)
	}
	if qmax < r.qmin+4 {
		qmax = r.qmin + 4
	}
	invariant.True("core.qmax", qmax >= r.qmin && !math.IsNaN(qmax))
	r.qmax = qmax
}

// estimateFlowCount implements the scalable flow counter of Section V-B.1:
// infer the steady-state peak window from the observed drop ratio, then
// n = 4*C*RTT/(3*W).
func (r *Router) estimateFlowCount(ps *pathState, alloc, interval float64) int {
	arrivals := ps.arrivedTokens
	if arrivals <= 0 || ps.drops == 0 {
		return ps.flowCount() // no signal this interval; keep exact count
	}
	gamma := float64(ps.drops) / arrivals // drops per token arrived
	w := tcpmodel.WindowFromDropRatio(gamma)
	if math.IsInf(w, 1) {
		return ps.flowCount()
	}
	n := tcpmodel.EstimateFlows(units.PacketsPerSec(alloc), r.rttOf(ps), w)
	if n < 1 {
		return 1
	}
	return int(n + 0.5)
}

// PathInfo is the externally visible state of one origin path identifier.
type PathInfo struct {
	// Key is the path identifier key.
	Key string
	// Conformance is E_Ri in [0, 1].
	Conformance float64
	// Attack reports the path's attack-path flag (inherited from its
	// aggregate when aggregated).
	Attack bool
	// Aggregated reports whether the path has been merged into an
	// aggregate identifier.
	Aggregated bool
	// AggregateKey names the aggregate (empty if not aggregated).
	AggregateKey string
	// Flows is the number of live flows.
	Flows int
	// AttackFlows is the number of flows flagged as attack flows.
	AttackFlows int
	// AllocPackets is the guaranteed bandwidth in packets/second of the
	// path's effective identifier.
	AllocPackets units.PacketsPerSec
	// Period and Bucket are the token-bucket parameters of the effective
	// identifier.
	Period float64
	Bucket float64
	// RTT is the path's raw measured RTT estimate.
	RTT float64
	// AdmittedPackets and DroppedPackets are the path's cumulative
	// admission counters since creation (origin attribution: an
	// aggregated path still counts its own packets).
	AdmittedPackets int64
	DroppedPackets  int64
}

// PathInfos returns per-origin-path state, sorted by key.
func (r *Router) PathInfos() []PathInfo {
	origins := r.sortedPaths().origins
	out := make([]PathInfo, 0, len(origins))
	for _, ps := range origins {
		eff := ps.effective()
		info := PathInfo{
			Key:             ps.key,
			Conformance:     ps.conformance,
			Attack:          ps.attack,
			Aggregated:      ps.aggregate != nil,
			Flows:           ps.flows.len(),
			AttackFlows:     ps.attackFlows,
			AllocPackets:    units.PacketsPerSec(eff.alloc),
			Period:          eff.params.Period,
			Bucket:          eff.params.Bucket,
			AdmittedPackets: ps.admittedPkts,
			DroppedPackets:  ps.droppedPkts,
		}
		if ps.aggregate != nil {
			info.AggregateKey = ps.aggregate.key
		}
		if ps.rtt.Initialized() {
			info.RTT = ps.rtt.Value()
		}
		out = append(out, info)
	}
	return out
}

// planSignature canonicalizes an aggregation plan for change detection.
func planSignature(plan map[string][]*pathState) string {
	keys := make([]string, 0, len(plan))
	for k := range plan {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		members := plan[k]
		names := make([]string, len(members))
		for i, m := range members {
			names[i] = m.key
		}
		sort.Strings(names)
		b.WriteString(strings.Join(names, ","))
		b.WriteByte(';')
	}
	return b.String()
}

// newEWMA is a tiny helper so aggregate states get a fresh RTT estimator.
func newEWMA() *stats.EWMA { return stats.NewEWMA(0.3) }

// DistinctDroppedFlows returns how many distinct flows of a path have a
// live drop record, and the flow count the TCP model implies for the
// path's allocation and drop ratio (Section V-B.1). A distinct-dropped
// count far below the model's estimate indicates attack flows are
// absorbing drops that, under all-TCP traffic, would spread one per flow
// per congestion epoch ("If the number of distinct flows that have packet
// drops is less than the computed number of flows, there certainly exist
// attack flows").
func (r *Router) DistinctDroppedFlows(pathKey string, now float64) (distinct int, modelEstimate float64) {
	ps := r.origins.lookup(pathKey)
	if ps == nil {
		return 0, 0
	}
	eff := ps.effective()
	nowTicks, epochTicks, k := r.filter.Ticks(now), r.filter.Ticks(r.epoch(eff)), r.filterK(eff)
	for _, fs := range ps.flows.all() {
		st := r.filter.QueryTicks(fs.hash, nowTicks, epochTicks, k)
		if st.TS > 0 || st.D > 0 {
			distinct++
		}
	}
	w := eff.params.Window
	if w <= 0 {
		return distinct, 0
	}
	return distinct, tcpmodel.EstimateFlows(units.PacketsPerSec(eff.alloc), r.rttOf(eff), w)
}
