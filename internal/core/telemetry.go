package core

import (
	"math"

	"floc/internal/telemetry"
	"floc/internal/units"
)

// This file is the router's telemetry seam. All emission is guarded by
// `r.tel != nil`: a router without SetTelemetry pays one predictable
// branch per decision point and allocates nothing. check.sh's
// telemetry-inline stage holds the observers behind those branches out
// of line, so the branch is all the detached path carries.
//
// Telemetry is strictly passive: it never touches the RNG or any state the
// admission policy reads, so enabling it cannot change a simulation's
// outcome, only record it.

// routerMetrics holds registry handles resolved once at SetTelemetry time
// so the hot path never takes the registry lock. Every series the router
// writes per packet, or per path per control run, is a cell of its own:
// the routers of a sharded engine meter the same series from different
// goroutines, and a cell is memory only this router's caller writes — in
// the dataplane whoever holds the shard's consumer role, one goroutine at
// a time.
type routerMetrics struct {
	arrived     *telemetry.CounterCell
	admitted    *telemetry.CounterCell
	drops       [numDropReasons]*telemetry.CounterCell
	controlRuns *telemetry.Counter

	queueLen        *telemetry.Gauge
	qmax            *telemetry.Gauge
	guaranteedPaths *telemetry.Gauge
	mode            *telemetry.Gauge
	filterLive      *telemetry.Gauge
	filterMem       *telemetry.Gauge

	// Flow population, from the tallies controlFlows keeps while it visits
	// every flow anyway: what control-run cost scales with.
	liveFlows    *telemetry.Gauge
	attackFlows  *telemetry.Gauge
	expiredFlows *telemetry.Counter

	// Drop-filter op counters advance by delta each control run; prev*
	// remember the last published cumulative values.
	filterRecordOps *telemetry.Counter
	filterQueryOps  *telemetry.Counter
	prevRecordOps   int64
	prevQueryOps    int64

	queueDelay      *telemetry.HistogramCell // seconds spent in the output queue
	bucketOccupancy *telemetry.HistogramCell // fraction of bucket tokens unused
	mtd             *telemetry.HistogramCell // reference mean time to drop
	conformance     *telemetry.HistogramCell // per-path conformance EWMA
}

// newRouterMetrics resolves the router's series on tel's registry. The
// gauges describe this router's own state, so they carry tel.Labels: the
// shard routers of an engine each set theirs.
func newRouterMetrics(tel *telemetry.Telemetry) *routerMetrics {
	reg := tel.Registry
	gauge := func(name, help, unit string) *telemetry.Gauge {
		if tel.Labels != "" {
			name += "{" + tel.Labels + "}"
		}
		return reg.Gauge(name, help, unit)
	}
	m := &routerMetrics{
		arrived:     reg.Counter("floc_router_arrived_packets_total", "packets offered to the router", "packets").Cell(),
		admitted:    reg.Counter("floc_router_admitted_packets_total", "packets admitted to the output queue", "packets").Cell(),
		controlRuns: reg.Counter("floc_router_control_runs_total", "control-loop executions", ""),

		queueLen:        gauge("floc_router_queue_len", "output queue length at last control run", "packets"),
		qmax:            gauge("floc_router_qmax", "flooding threshold Q_max", "packets"),
		guaranteedPaths: gauge("floc_router_guaranteed_paths", "bandwidth-guaranteed path identifiers", ""),
		mode:            gauge("floc_router_mode", "queue mode (1=uncongested 2=congested 3=flooding)", ""),
		filterLive:      gauge("floc_filter_live_records", "live drop-filter records at last control run", ""),
		filterMem:       gauge("floc_filter_memory_bytes", "drop-filter memory footprint", "bytes"),

		liveFlows:    gauge("floc_router_live_flows", "flows tracked after the last control run's expiry", ""),
		attackFlows:  gauge("floc_router_attack_flows", "tracked flows classified as attack flows at the last control run", ""),
		expiredFlows: reg.Counter("floc_router_expired_flows_total", "idle flows expired by control runs", ""),

		filterRecordOps: reg.Counter("floc_filter_record_ops_total", "drop-filter RecordDrop operations", ""),
		filterQueryOps:  reg.Counter("floc_filter_query_ops_total", "drop-filter Query operations", ""),

		queueDelay: reg.Histogram("floc_router_queue_delay_seconds",
			"per-packet output-queue delay in sim-time", "seconds",
			[]float64{1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1}).Cell(),
		bucketOccupancy: reg.Histogram("floc_router_bucket_occupancy",
			"unused fraction of each guaranteed path's token bucket at control runs", "ratio",
			[]float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1}).Cell(),
		mtd: reg.Histogram("floc_router_mtd_seconds",
			"reference mean time to drop per guaranteed path at control runs", "seconds",
			[]float64{1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1, 3}).Cell(),
		conformance: reg.Histogram("floc_router_conformance",
			"conformance EWMA per guaranteed path at control runs", "ratio",
			[]float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 1}).Cell(),
	}
	for reason := DropReason(0); reason < numDropReasons; reason++ {
		m.drops[reason] = reg.Counter(
			`floc_router_drops_total{reason="`+reason.String()+`"}`,
			"packets dropped by reason", "packets").Cell()
	}
	return m
}

// SetTelemetry attaches a telemetry instance to the router. Pass nil to
// detach. Attaching mid-run is allowed: queue-delay observations are
// skipped for packets already queued.
func (r *Router) SetTelemetry(tel *telemetry.Telemetry) {
	r.tel = tel
	r.met = nil
	r.delayQ = timeQueue{}
	if tel == nil {
		return
	}
	r.met = newRouterMetrics(tel)
	r.lastMode = r.Mode()
	// Packets already in the queue have unknown admit times; NaN entries
	// are skipped at dequeue.
	for i := 0; i < r.fifo.Len(); i++ {
		r.delayQ.push(math.NaN())
	}
}

// Telemetry returns the attached telemetry instance (nil when disabled).
func (r *Router) Telemetry() *telemetry.Telemetry { return r.tel }

// noteMode emits a ModeChanged event when the derived queue mode differs
// from the last observed one. Called after every enqueue/dequeue while
// telemetry is attached; mode is pure function of queue length and the
// thresholds, so this reconstructs every transition.
func (r *Router) noteMode(now float64) {
	m := r.Mode()
	if m == r.lastMode {
		return
	}
	r.lastMode = m
	r.met.mode.Set(float64(m))
	r.tel.Emit(telemetry.Event{
		Time:  now,
		Type:  telemetry.EventModeChanged,
		Mode:  m.String(),
		Value: float64(r.fifo.Len()),
	})
}

// sampleControl records the per-control-run observability: gauges,
// per-path histograms, recorder samples, and the ControlRunCompleted
// event. Iteration follows sortedPaths' key order so the trace is
// deterministic.
func (r *Router) sampleControl(now float64) {
	r.met.controlRuns.Inc()
	r.met.queueLen.Set(float64(r.fifo.Len()))
	r.met.qmax.Set(r.qmax)
	r.met.mode.Set(float64(r.Mode()))
	r.met.filterLive.Set(float64(r.filter.Live()))
	r.met.filterMem.Set(float64(r.filter.MemoryBytes()))
	recordOps, queryOps := r.filter.Counters()
	r.met.filterRecordOps.Add(recordOps - r.met.prevRecordOps)
	r.met.filterQueryOps.Add(queryOps - r.met.prevQueryOps)
	r.met.prevRecordOps = recordOps
	r.met.prevQueryOps = queryOps
	r.met.liveFlows.Set(float64(r.tally.live))
	r.met.attackFlows.Set(float64(r.tally.attack))
	r.met.expiredFlows.Add(int64(r.tally.expired))

	order := r.sortedPaths()
	r.met.guaranteedPaths.Set(float64(len(order.guaranteed)))
	for _, ps := range order.guaranteed {
		if size := ps.bucket.Size(); size > 0 {
			// tokens over bucket-size tokens: the occupancy fraction
			occupancy := ps.bucket.Available(now) / size
			r.met.bucketOccupancy.Observe(occupancy)
		}
		r.met.mtd.Observe(ps.params.RefMTD)
		r.met.conformance.Observe(ps.conformance)
	}

	if r.tel.Recorder != nil {
		for _, ps := range order.origins {
			eff := ps.effective()
			s := telemetry.PathSample{
				Time:         now,
				Path:         ps.key,
				Attack:       ps.attack,
				Conformance:  ps.conformance,
				AllocPackets: units.PacketsPerSec(eff.alloc),
				BucketSize:   eff.params.Bucket,
				Period:       eff.params.Period,
				Flows:        ps.flows.len(),
				AttackFlows:  ps.attackFlows,
				// Interval arrivals are metered on the effective (bucket-
				// owning) identifier; drops are the origin's cumulative
				// count.
				Arrived: eff.intervalArrived,
				Drops:   ps.droppedPkts,
			}
			if ps.aggregate != nil {
				s.Aggregate = ps.aggregate.key
			}
			r.tel.Recorder.Record(s)
		}
	}

	r.tel.Emit(telemetry.Event{
		Time:  now,
		Type:  telemetry.EventControlRunCompleted,
		Mode:  r.Mode().String(),
		Value: float64(r.controlRuns),
	})
}

// timeQueue mirrors the FIFO's order with the sim-time each packet was
// admitted, for the queue-delay histogram. Same head-index compaction
// trick as netsim.FIFO.
type timeQueue struct {
	buf  []float64
	head int
}

func (q *timeQueue) push(t float64) { q.buf = append(q.buf, t) }

func (q *timeQueue) pop() float64 {
	if q.head >= len(q.buf) {
		return math.NaN() // desynced (telemetry attached mid-run); skip
	}
	t := q.buf[q.head]
	q.head++
	if q.head > 64 && q.head*2 > len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	return t
}
