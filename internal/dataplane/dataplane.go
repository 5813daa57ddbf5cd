// Package dataplane runs FLoc across multiple cores. An Engine partitions
// traffic by hashing each packet's path identifier onto one of N worker
// shards; every shard owns a private core.Router (configured with 1/N of
// the link rate and buffer) plus a bounded MPSC ring queue feeding it, and
// a shard's state is touched by one goroutine at a time: whoever holds the
// shard's consumer role (shard.role) — its worker whenever it is awake, or
// a producer that found the worker parked while it was itself about to
// block (Burst.Quiesce). Producers — UDP readers, capture replay,
// benchmarks — enqueue concurrently; the role holder drains the ring in
// batches, admits them packet by packet and services the router's output
// queue against a virtual-time transmitter.
//
// Partitioning by path identifier is what makes the split faithful to the
// single-router semantics: FLoc's admission state (token buckets,
// conformance, flow tables, aggregation) is all keyed by origin path, so
// a path's packets always meet the same router and the same state. What
// the split cannot preserve is cross-path interaction through the shared
// physical buffer — each shard sees only its own queue when classifying
// uncongested/congested/flooding — which is the standard trade of sharded
// dataplanes (RSS spreads flows over queues the same way).
//
// Backpressure is explicit: when a shard's ring is full the engine either
// drops the packet and counts it (telemetry counter
// floc_dataplane_ring_full_drops_total plus Stats), or, in BlockOnFull
// mode, yields until the worker catches up. Nothing is ever dropped
// silently.
package dataplane

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"floc/internal/core"
	"floc/internal/defense"
	"floc/internal/invariant"
	"floc/internal/netsim"
	"floc/internal/pathid"
	"floc/internal/telemetry"
	"floc/internal/units"
)

// PacketSink receives packets the virtual transmitter has finished
// sending — the engine's egress seam. A daemon forwarding traffic to a
// downstream flocd implements it with a socket writer. A shard's sink is
// called by whoever holds the shard's consumer role, one goroutine at a
// time; implementations shared across shards must be safe for concurrent
// use. Who owns an emitted packet depends on the sink: a Flusher gives it
// back at its next Flush, and the shard reuses it; a sink without Flush
// keeps it, and the engine never touches it again.
type PacketSink interface {
	// Emit is called once per transmitted packet with the virtual time
	// the transmission completed.
	Emit(pkt *netsim.Packet, now float64)
}

// Flusher is the optional second half of a PacketSink that buffers what
// Emit hands it. A role holder that has emitted calls Flush after every
// batch it drains from a ring, before Burst.Quiesce returns — once for
// all the shards the producer served — and before a barrier command
// (Drain, Advance, Snapshot, …) returns, so nothing emitted is left
// buffered while the engine is idle or a caller believes it quiesced.
// When Flush returns the sink is done with every packet Emit handed it
// before the call: the role holder puts them back on its shard's free
// list, to be overwritten by the next packets admitted. New resolves the
// interface once; a sink without Flush is never asked.
type Flusher interface {
	Flush()
}

// Config parameterizes an Engine.
type Config struct {
	// Router configures the aggregate router the shards jointly emulate.
	// Link rate and buffer capacity are divided across shards; all other
	// parameters are inherited verbatim. Shard i derives its RNG seed
	// from Router.Seed so runs are reproducible at any shard count
	// (shard 0 keeps the base seed: a 1-shard engine is bit-identical to
	// a plain core.Router).
	Router core.Config
	// Shards is the number of worker shards. Zero means "pick for me":
	// runtime.GOMAXPROCS(0), one shard per schedulable core. Negative is
	// rejected — it is always a caller bug, not a preference.
	Shards int
	// RingSize is the per-shard ring capacity in packets. It must be a
	// power of two (the ring maps cursors to slots with a mask); zero
	// defaults to 1024.
	RingSize int
	// Batch bounds how many packets a worker admits per ring drain; zero
	// defaults to 64.
	Batch int
	// BlockOnFull makes Enqueue yield until ring space frees instead of
	// dropping. Use for offline replay, where input has no real arrival
	// clock and losing packets to producer speed would be nonsense.
	BlockOnFull bool
	// Telemetry, when non-nil, receives the shard routers' metrics and
	// the engine's backpressure counters. Counters and histograms
	// aggregate exactly across shards: each shard router writes cells of
	// its own and a read sums them, at any instant, with nothing to flush.
	// The routers' gauges describe one shard's state and are labelled
	// {shard="i"}, as the engine's own per-shard series are.
	Telemetry *telemetry.Registry
	// TraceCapacity, when > 0, attaches a bounded event-trace ring of
	// that size to each shard router. Wraparound losses from every shard
	// count on the shared Telemetry counter
	// floc_trace_dropped_events_total. Requires Telemetry.
	TraceCapacity int
	// Sink, when non-nil, receives every shard router's emitted events
	// with Event.Shard stamped to the emitting shard — the seam the
	// forensic ledger sealer plugs into. The sink is shared by all shards'
	// role holders concurrently and must be safe for concurrent use.
	// Requires Telemetry.
	Sink telemetry.EventSink
	// Egress, when non-nil, receives every packet the shard transmitters
	// finish sending — the seam a multi-router deployment uses to forward
	// admitted traffic to the next flocd hop. Shared by all shards' role
	// holders concurrently; must be safe for concurrent use.
	Egress PacketSink
}

// withDefaults resolves zero values.
func (c Config) withDefaults() Config {
	if c.Shards == 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.RingSize == 0 {
		c.RingSize = 1024
	}
	if c.Batch == 0 {
		c.Batch = 64
	}
	return c
}

// validate checks a resolved configuration.
func (c Config) validate() error {
	switch {
	case c.Shards <= 0:
		return fmt.Errorf("dataplane: shard count %d <= 0", c.Shards)
	case c.RingSize < 2 || c.RingSize&(c.RingSize-1) != 0:
		return fmt.Errorf("dataplane: ring size %d not a power of two >= 2", c.RingSize)
	case c.Batch <= 0:
		return fmt.Errorf("dataplane: batch %d <= 0", c.Batch)
	case c.Router.Capacity/c.Shards < 4:
		return fmt.Errorf("dataplane: capacity %d over %d shards leaves < 4 packets per shard",
			c.Router.Capacity, c.Shards)
	case c.TraceCapacity > 0 && c.Telemetry == nil:
		return fmt.Errorf("dataplane: TraceCapacity requires Telemetry")
	case c.Sink != nil && c.Telemetry == nil:
		return fmt.Errorf("dataplane: Sink requires Telemetry")
	}
	return nil
}

// Stats are the engine's own lifetime counters, distinct from router
// admission counters: they describe the ring boundary, not the policy.
type Stats struct {
	// Accepted counts packets that entered a shard: its ring, or its router
	// directly from a producer holding the consumer role.
	Accepted int64
	// RingDrops counts packets dropped because a ring was full, or because
	// the engine closed while a producer was still handing them in.
	RingDrops int64
	// Processed counts packets the role holders ran through admission.
	Processed int64
	// LimitDrops counts packets dropped by cluster-installed per-path
	// limits before they reached router admission.
	LimitDrops int64
}

// seedStride separates shard RNG streams (64-bit golden ratio, odd).
const seedStride = 0x9e3779b97f4a7c15

// admissionLatencyBounds are the fixed buckets for the per-shard batch
// admission latency histogram: 1µs to ~16ms in powers of four, wide
// enough to show a stall without per-observation allocation.
var admissionLatencyBounds = []float64{
	1e-6, 4e-6, 16e-6, 64e-6, 256e-6, 1e-3, 4e-3, 16e-3,
}

// shardSink stamps the emitting shard's index onto every event bound
// for the engine-wide sink, so ledger replay can reconstruct per-shard
// streams (mode transitions and control-run counts are per-shard state).
type shardSink struct {
	shard uint32
	dst   telemetry.EventSink
}

func (s *shardSink) Emit(e telemetry.Event) {
	e.Shard = s.shard
	s.dst.Emit(e)
}

// Engine is the sharded dataplane. Enqueue is safe for concurrent use by
// any number of producers; Drain, Advance, Snapshot and Close serialize
// through an internal mutex and must not race with further Enqueues'
// expectations (see each method).
type Engine struct {
	cfg    Config
	shards []*shard
	tags   []uint32 // tags[i] is shard i's router handle tag (core.HandleTag)

	ctl    sync.Mutex // serializes control-plane ops (Drain/Advance/Snapshot/Close)
	closed atomic.Bool
	wg     sync.WaitGroup
}

// shard is one ring in, one private router, one virtual transmitter out,
// and the consumer role that says who may run them.
type shard struct {
	ring   *ring
	router *core.Router

	// role is the shard's consumer role: its holder is the ring's one
	// consumer and the one goroutine touching the router, the transmitter
	// and the role-owned state below. The worker holds it whenever it is
	// not parked; a quiescing producer takes it, with TryLock, only while
	// the worker is parked (takeRole).
	role     sync.Mutex
	wake     chan struct{}     // 1-buffered doorbell
	sleeping atomic.Bool       // the worker is parked, or about to park on an empty ring
	cmds     chan func(*shard) // control commands, run by handle
	stop     chan struct{}

	accepted  atomic.Int64
	ringDrops atomic.Int64
	processed atomic.Int64
	dropCtr   *telemetry.Counter // nil when telemetry is off
	yieldCtr  *telemetry.Counter // BlockOnFull yields on this ring; nil when telemetry is off

	// Cluster limit surface: installed-limit count and limiter drops,
	// published by the role holder for lock-free external reads.
	limitCount   atomic.Int64
	limitDrops   atomic.Int64
	limitDropCtr *telemetry.Counter // nil when telemetry is off
	limitGauge   *telemetry.Gauge   // nil when telemetry is off

	// Health surface (nil when telemetry is off): batch admission wall-
	// clock latency, ring occupancy and packet slots owned, sampled after
	// each admitted batch.
	latHist   *telemetry.Histogram
	occGauge  *telemetry.Gauge
	slotGauge *telemetry.Gauge

	// Which way packets went (nil when telemetry is off), counted per run,
	// never per packet: runs a producer processed under the role, and
	// doorbells that woke the parked worker.
	inlineRuns *telemetry.Counter
	wakeups    *telemetry.Counter

	// Role-owned state below: touched only by whoever holds role.
	buf       []core.BatchItem     // the batch being admitted; points into slots
	slots     packetSlots          // the memory of the packets this shard holds
	warm      uint64               // fold of what Prefetch read; never read back
	free      float64              // sim time the transmitter is next idle
	rateBytes float64              // transmitter rate, bytes/s
	egress    PacketSink           // nil = no forwarding
	flusher   Flusher              // egress's Flush half; nil when it has none
	bank      *defense.LimiterBank // nil until the first limit install
	bankDrops int                  // bank.Drops() last published to counters
}

// slotChunk is how many packet slots a shard allocates at a time, when its
// free list is empty.
const slotChunk = 64

// packetSlots is a shard's packet memory. The role holder copies every
// packet it admits out of the ring, or out of a quiescing producer's run,
// into a slot taken from the free list, and the router queues that slot.
// A slot comes back at exactly four points: Router.Enqueue refused it,
// the LimiterBank dropped it, the transmitter finished it and there is no
// egress sink, or it was emitted to a Flusher and the role holder's next
// Flush returned. A slot handed to a sink without Flush is the sink's and
// leaves the shard's count. So a shard owns at most its router's
// capacity, one batch — one run, if a run is longer, with a Flusher — and
// one chunk of slots (DESIGN.md "Packet ownership"). Role-owned.
type packetSlots struct {
	free  []*netsim.Packet // LIFO: the slot freed last is reused first
	lent  []*netsim.Packet // emitted to the Flusher since the role holder's last Flush
	owned int              // slots allocated and not kept by a sink: queued, in the batch, lent, or free
}

// load copies the item's packet into a slot off the free list, allocating a
// chunk first if the list is empty, and points dst at the slot.
func (s *packetSlots) load(dst *core.BatchItem, it *ringItem) {
	if len(s.free) == 0 {
		s.grow()
	}
	p := s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	*p = it.pkt
	dst.Pkt, dst.At = p, it.at
}

// release returns a slot the shard is done with to the free list.
func (s *packetSlots) release(p *netsim.Packet) { s.free = append(s.free, p) }

// reclaim returns every lent slot to the free list. Call it only once a
// Flush issued after their Emit has returned.
func (s *packetSlots) reclaim() {
	s.free = append(s.free, s.lent...)
	s.lent = s.lent[:0]
}

// grow allocates the next slotChunk slots onto the free list: one
// allocation per slotChunk packets the shard holds at once or hands to a
// sink that keeps them.
func (s *packetSlots) grow() {
	chunk := make([]netsim.Packet, slotChunk)
	for i := range chunk {
		s.free = append(s.free, &chunk[i])
	}
	s.owned += slotChunk
}

// New builds an engine and starts its workers.
func New(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if invariant.Hot {
		invariant.Positive("dataplane.shards", float64(cfg.Shards))
		invariant.Positive("dataplane.ring-size", float64(cfg.RingSize))
	}
	n := cfg.Shards
	e := &Engine{cfg: cfg, shards: make([]*shard, n), tags: make([]uint32, n)}
	baseCap, remCap := cfg.Router.Capacity/n, cfg.Router.Capacity%n
	for i := 0; i < n; i++ {
		rc := cfg.Router
		rc.LinkRateBits = cfg.Router.LinkRateBits / float64(n)
		rc.Capacity = baseCap
		if i < remCap {
			rc.Capacity++
		}
		if i > 0 {
			rc.Seed = cfg.Router.Seed + uint64(i)*seedStride
		}
		router, err := core.NewRouter(rc)
		if err != nil {
			return nil, fmt.Errorf("dataplane: shard %d: %w", i, err)
		}
		sh := &shard{
			ring:      newRing(cfg.RingSize),
			router:    router,
			wake:      make(chan struct{}, 1),
			cmds:      make(chan func(*shard)),
			stop:      make(chan struct{}),
			buf:       make([]core.BatchItem, cfg.Batch),
			rateBytes: units.BitsPerSec(rc.LinkRateBits).BytesPerSec(),
		}
		if cfg.Telemetry != nil {
			tel := &telemetry.Telemetry{Registry: cfg.Telemetry, Labels: fmt.Sprintf(`shard="%d"`, i)}
			if cfg.TraceCapacity > 0 {
				tel.Trace = telemetry.NewTrace(cfg.TraceCapacity)
				// All shard traces share the one wraparound counter.
				tel.Trace.SetDropCounter(cfg.Telemetry.Counter(telemetry.TraceDroppedMetric,
					"events lost to trace ring wraparound", "events"))
			}
			if cfg.Sink != nil {
				tel.Sink = &shardSink{shard: uint32(i), dst: cfg.Sink}
			}
			router.SetTelemetry(tel)
			sh.dropCtr = cfg.Telemetry.Counter(
				fmt.Sprintf(`floc_dataplane_ring_full_drops_total{shard="%d"}`, i),
				"packets dropped at a full shard ring", "packets")
			sh.yieldCtr = cfg.Telemetry.Counter(
				fmt.Sprintf(`floc_dataplane_ring_full_yields_total{shard="%d"}`, i),
				"times a producer found the shard ring full and yielded (BlockOnFull)", "yields")
			sh.occGauge = cfg.Telemetry.Gauge(
				fmt.Sprintf(`floc_dataplane_ring_occupancy{shard="%d"}`, i),
				"shard ring occupancy after the last drained batch", "packets")
			sh.slotGauge = cfg.Telemetry.Gauge(
				fmt.Sprintf(`floc_dataplane_packet_slots{shard="%d"}`, i),
				"packet slots the shard owns, queued, lent to the egress sink or free, after the last admitted batch", "packets")
			sh.latHist = cfg.Telemetry.Histogram(
				fmt.Sprintf(`floc_dataplane_admission_batch_seconds{shard="%d"}`, i),
				"wall-clock time to admit one drained batch", "seconds",
				admissionLatencyBounds)
			sh.limitDropCtr = cfg.Telemetry.Counter(
				fmt.Sprintf(`floc_cluster_limit_dropped_total{shard="%d"}`, i),
				"packets dropped by cluster-installed path limits", "packets")
			sh.limitGauge = cfg.Telemetry.Gauge(
				fmt.Sprintf(`floc_cluster_installed_limits{shard="%d"}`, i),
				"active cluster-installed path limits", "")
			sh.inlineRuns = cfg.Telemetry.Counter(
				fmt.Sprintf(`floc_dataplane_inline_runs_total{shard="%d"}`, i),
				"burst runs a quiescing producer processed itself, the worker being parked", "runs")
			sh.wakeups = cfg.Telemetry.Counter(
				fmt.Sprintf(`floc_dataplane_worker_wakeups_total{shard="%d"}`, i),
				"doorbells that woke the shard's parked worker", "wakeups")
		}
		sh.egress = cfg.Egress
		sh.flusher, _ = cfg.Egress.(Flusher)
		e.shards[i] = sh
		e.tags[i] = router.HandleTag()
	}
	for _, sh := range e.shards {
		e.wg.Add(1)
		go func(sh *shard) {
			defer e.wg.Done()
			sh.run()
		}(sh)
	}
	return e, nil
}

// Shards returns the resolved shard count.
func (e *Engine) Shards() int { return len(e.shards) }

// ShardOf returns the shard index a path identifier maps to. Exported so
// tests and traffic generators can construct shard-targeted workloads.
func (e *Engine) ShardOf(path pathid.PathID) int {
	return pathShard(path, len(e.shards))
}

// pathShard hashes a path identifier (FNV-1a over the big-endian domain
// sequence) onto [0, n). FNV is enough here: path identifiers are
// assigned by topology, not chosen by the attacker per-packet — a flow
// cannot re-shard itself by varying header bytes the router would reject.
// Any path maps into [0, n), so no input can index past the shards.
func pathShard(path pathid.PathID, n int) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, as := range path {
		v := uint32(as)
		for shift := 24; shift >= 0; shift -= 8 {
			h ^= uint64(uint8(v >> shift))
			h *= prime64
		}
	}
	return int(h % uint64(n))
}

// shardFor picks the shard that owns pkt's path. A packet that carries a
// handle is routed by the router tag in the handle's high bits: InternPath
// mints a handle on the shard its path hashes to, so the tag names that
// shard without hashing anything. A packet without a handle, or with one
// no shard of this engine issued, is routed by the path hash itself.
func (e *Engine) shardFor(pkt *netsim.Packet) int {
	if tag := core.HandleTag(pkt.PathHandle); tag != 0 {
		for i, t := range e.tags {
			if t == tag {
				return i
			}
		}
	}
	return pathShard(pkt.Path, len(e.shards))
}

// Enqueue hands a copy of a packet to its shard. It returns true when the
// copy entered the ring. False means one of two things. The ring was full:
// the packet is dropped, and counted in Stats and telemetry; with
// BlockOnFull Enqueue yields and retries instead, and drops and counts
// only if the engine closes while it does. Or the engine was already
// closed when Enqueue was called: that only the return value reports.
// Either way the caller may reuse its packet as soon as Enqueue returns.
func (e *Engine) Enqueue(pkt *netsim.Packet, now float64) bool {
	if e.closed.Load() {
		return false
	}
	sh := e.shards[e.shardFor(pkt)]
	for !sh.ring.tryEnqueue(pkt, now) {
		if !e.ringFull(sh) {
			return false
		}
	}
	sh.accepted.Add(1)
	sh.ringWake()
	return true
}

// ringFull is the full-ring policy, for one packet that found no free
// slot in sh's ring. It reports whether to try that packet again. Without
// BlockOnFull it never does; with it, it wakes the worker and yields to
// it, and says yes until the engine closes. A no is a packet dropped, and
// counted here; so is every yield.
func (e *Engine) ringFull(sh *shard) (retry bool) {
	if e.cfg.BlockOnFull {
		if sh.yieldCtr != nil {
			sh.yieldCtr.Inc()
		}
		sh.ringWake()
		runtime.Gosched()
		if !e.closed.Load() {
			return true
		}
	}
	sh.countRingDrops(1)
	return false
}

// countRingDrops counts n packets dropped at sh's ring.
func (sh *shard) countRingDrops(n int) {
	sh.ringDrops.Add(int64(n))
	if sh.dropCtr != nil {
		sh.dropCtr.Add(int64(n))
	}
}

// burstRun is how many packets a Burst buffers per shard before it hands
// them to the ring in one claim.
const burstRun = 64

// Burst is one producer's amortizing front end to Enqueue: packets are
// buffered per shard and enter the shard's ring a run at a time — one
// cursor CAS, one accepted update and one doorbell for up to burstRun
// packets instead of one each per packet. Per-shard arrival order is the
// order of the Enqueue calls. A buffered packet is invisible to the
// engine: the owner must Flush or Quiesce before any barrier (Drain,
// Advance, Snapshot, Close) that is meant to cover it, and Quiesce before
// it blocks waiting for more input. Not safe for concurrent use — give
// each producing goroutine its own.
type Burst struct {
	e    *Engine
	runs [][]ringItem // per shard; cap burstRun
	held []*shard     // Quiesce's scratch: the roles it holds; cap len(runs)
}

// NewBurst returns an empty burst for one producer.
func (e *Engine) NewBurst() *Burst {
	b := &Burst{e: e, runs: make([][]ringItem, len(e.shards)), held: make([]*shard, 0, len(e.shards))}
	for i := range b.runs {
		b.runs[i] = make([]ringItem, 0, burstRun)
	}
	return b
}

// Enqueue buffers a copy of a packet for its shard, handing the shard's
// run to the ring when it reaches burstRun. What Engine.Enqueue reports
// per packet — ring full, engine closed — is decided when the run is
// flushed and shows in Stats. The caller may reuse its packet as soon as
// Enqueue returns.
func (b *Burst) Enqueue(pkt *netsim.Packet, now float64) {
	i := b.e.shardFor(pkt)
	// Copied field-wise into the run's next element, not appended as a
	// literal that would be built on the stack first.
	run := b.runs[i][:len(b.runs[i])+1]
	it := &run[len(run)-1]
	it.pkt, it.at = *pkt, now
	b.runs[i] = run
	if len(run) == burstRun {
		b.flushRun(i)
	}
}

// Flush hands every buffered packet to its ring: hand off and keep
// producing. The shard workers process beside the producer.
func (b *Burst) Flush() {
	for i, run := range b.runs {
		if len(run) > 0 {
			b.flushRun(i)
		}
	}
}

// Quiesce is the flush of a producer that is about to block: nothing stays
// buffered, and where handing off would only wake a parked worker for the
// producer to park in its place, the producer does the work itself. For
// every shard it holds a run for and whose worker is parked it takes the
// consumer role (takeRole), drains what is left in the ring — its own
// earlier runs first, per-producer FIFO — and admits the run itself
// (shard.admitRun): no ring slot, no doorbell. It keeps every role it
// took until one Flusher.Flush has covered them all and each of those
// shards has its emitted packets back. A shard whose worker
// is awake, or whose role someone else holds, gets its run through the
// ring exactly as in Flush, so nothing is lost between the two; so does
// one whose ring still holds a claim its producer has not published —
// runs of this producer may sit behind it, and must not be overtaken —
// and so does every shard of a closed engine, for flushRun to count.
// When Quiesce returns, every packet it processed inline has been
// admitted and its emissions flushed; the others are in their rings,
// behind any barrier that follows.
func (b *Burst) Quiesce() {
	held := b.held[:0]
	var flusher Flusher
	for i, run := range b.runs {
		if len(run) == 0 {
			continue
		}
		sh := b.e.shards[i]
		if !sh.takeRole() {
			b.flushRun(i)
			continue
		}
		if sh.drainRing(); sh.ring.occupancy() != 0 || b.e.closed.Load() {
			sh.role.Unlock() // before a ring that may be full, and only this shard's worker empties it
			b.flushRun(i)
			continue
		}
		held = append(held, sh)
		b.runs[i] = run[:0]
		sh.accepted.Add(int64(len(run)))
		sh.admitRun(run)
		if sh.inlineRuns != nil {
			sh.inlineRuns.Inc()
		}
		if len(sh.slots.lent) != 0 {
			flusher = sh.flusher // one sink, whichever shard names it
		}
	}
	if flusher != nil {
		flusher.Flush()
	}
	for _, sh := range held {
		sh.slots.reclaim()
		sh.role.Unlock()
	}
}

// takeRole gives the caller, a producer, the shard's consumer role if the
// worker is parked and nobody else has it. The worker stores sleeping
// before it lets the role go and clears it before it asks for it back, and
// for good before it exits, so a true here is a worker that is parked or
// on its way to the role.Lock it will block in; TryLock succeeding is what
// grants the role, and the role's previous Unlock is what orders the
// caller behind everything the last holder did.
func (sh *shard) takeRole() bool {
	return sh.sleeping.Load() && sh.role.TryLock()
}

// flushRun moves shard i's run into its ring, as many packets per claim
// as the ring has room for. A packet that finds the ring full meets the
// same policy as in Engine.Enqueue; what is still buffered when the engine
// closes is dropped and counted with the ring's drops, since nobody is
// left to tell.
func (b *Burst) flushRun(i int) {
	sh, items := b.e.shards[i], b.runs[i]
	b.runs[i] = items[:0]
	for len(items) > 0 {
		if b.e.closed.Load() {
			sh.countRingDrops(len(items))
			return
		}
		if n := sh.ring.tryEnqueueBurst(items); n > 0 {
			items = items[n:]
			sh.accepted.Add(int64(n))
			sh.ringWake()
		} else if !b.e.ringFull(sh) {
			items = items[1:]
		}
	}
}

// ringWake rings the shard's doorbell if the worker is parked. The
// ordering argument: a producer publishes the item (sequential
// consistency of the slot sequence store) before loading sleeping, and
// the worker stores sleeping=true before its final emptiness check — so
// either the worker sees the item, or the producer sees sleeping and the
// buffered doorbell survives until the worker selects on it. A producer
// that holds the role meanwhile changes nothing in this: it never writes
// sleeping, and an item it does not drain was published behind its last
// look, by someone who then found sleeping still set and rang.
func (sh *shard) ringWake() {
	if sh.sleeping.Load() {
		select {
		case sh.wake <- struct{}{}:
		default:
		}
	}
}

// run is the worker loop: drain batches while there is work, handle
// control commands at quiescent points, park when idle. Egress is flushed
// after every batch, so the worker never parks on buffered packets. The
// worker holds the consumer role throughout, except while parked.
func (sh *shard) run() {
	sh.role.Lock()
	defer sh.role.Unlock()
	for {
		if sh.drainBatch() {
			sh.flushEgress()
			select {
			case c := <-sh.cmds:
				sh.handle(c)
			default:
			}
			continue
		}
		select {
		case c := <-sh.cmds:
			sh.handle(c)
			continue
		default:
		}
		sh.sleeping.Store(true)
		if !sh.ring.empty() {
			sh.sleeping.Store(false)
			continue
		}
		cmd, stopped := sh.park()
		if stopped {
			// Sealed, the ring takes nothing more; a producer that claimed
			// slots just before is waited for, so that whatever was
			// accepted has been processed when Close returns.
			for sh.ring.seal(); ; runtime.Gosched() {
				sh.drainRing()
				if sh.ring.occupancy() == 0 {
					return
				}
			}
		}
		if cmd != nil {
			sh.handle(cmd)
		}
	}
}

// park lets the role go, waits for a doorbell, a command or stop, and
// takes the role back — behind a producer that took it meanwhile, which a
// command, a barrier or Close therefore waits out. sleeping is cleared
// before the Lock: from then on producers use the ring and ring no bell,
// and after stop none of them can take the role of a worker that is gone.
func (sh *shard) park() (cmd func(*shard), stopped bool) {
	sh.role.Unlock()
	select {
	case <-sh.wake:
		if sh.wakeups != nil {
			sh.wakeups.Inc()
		}
	case cmd = <-sh.cmds:
	case <-sh.stop:
		stopped = true
	}
	sh.sleeping.Store(false)
	sh.role.Lock()
	return cmd, stopped
}

// process admits one batch. The router first reads ahead, for the whole
// batch, the state the packets are about to need (core.Router.Prefetch:
// read-only, so it decides nothing). Then, packet by packet, the router's
// virtual transmitter is serviced up to each packet's own arrival time
// before that packet is admitted, the way the simulator's event loop
// interleaves enqueues and dequeues, so the queue a packet meets depends
// on the arrivals before it and on nothing else — in particular not on
// where dequeueBatch happened to cut the stream, which is what makes a
// replay reproducible (DESIGN.md "The hand-off").
func (sh *shard) process(items []core.BatchItem) {
	var start time.Time
	if sh.latHist != nil {
		start = time.Now() //floclint:allow sim-time wall-clock batch latency is exactly what the health histogram measures
	}
	sh.warm ^= sh.router.Prefetch(items)
	for i := range items {
		it := &items[i]
		sh.serve(it.At)
		// Cluster-installed limits gate admission: a path over its
		// propagated budget is dropped here, before it spends any router
		// buffer — the upstream half of the pushback contract. A packet
		// the router does not queue, for whichever reason, frees its slot.
		if (sh.bank == nil || sh.bank.Admit(it.Pkt.PathHandle, it.Pkt, it.At)) && sh.router.Enqueue(it.Pkt, it.At) {
			continue
		}
		sh.slots.release(it.Pkt)
	}
	if sh.bank != nil {
		if d := sh.bank.Drops(); d != sh.bankDrops {
			delta := int64(d - sh.bankDrops)
			sh.bankDrops = d
			sh.limitDrops.Add(delta)
			if sh.limitDropCtr != nil {
				sh.limitDropCtr.Add(delta)
			}
		}
	}
	sh.processed.Add(int64(len(items)))
	if sh.latHist != nil {
		sh.latHist.Observe(time.Since(start).Seconds()) //floclint:allow sim-time wall-clock batch latency is exactly what the health histogram measures
		sh.occGauge.Set(float64(sh.ring.occupancy()))
		sh.slotGauge.Set(float64(sh.slots.owned))
	}
}

// admitRun admits a quiescing producer's run: len(buf) packets at a time,
// each copied into a slot first, as drainBatch copies them out of the
// ring. Where a run is cut into batches changes no decision (process).
func (sh *shard) admitRun(run []ringItem) {
	for len(run) > 0 {
		n := min(len(run), len(sh.buf))
		for i := range run[:n] {
			sh.slots.load(&sh.buf[i], &run[i])
		}
		sh.process(sh.buf[:n])
		run = run[n:]
	}
}

// serve drains the router's output queue through the shard's share of
// the link until the virtual transmitter catches up with now.
func (sh *shard) serve(now float64) {
	for sh.free <= now {
		pkt := sh.router.Dequeue(sh.free)
		if pkt == nil {
			sh.free = now
			return
		}
		sh.free += float64(pkt.Size) / sh.rateBytes
		switch {
		case sh.egress == nil:
			sh.slots.release(pkt)
			continue
		case sh.flusher != nil:
			sh.slots.lent = append(sh.slots.lent, pkt) // back at the next Flush
		default:
			sh.slots.owned-- // the sink's from here on
		}
		sh.egress.Emit(pkt, sh.free)
	}
}

// flushEgress flushes a buffering sink if this shard has emitted into it
// since the last flush, and takes back what it emitted.
func (sh *shard) flushEgress() {
	if len(sh.slots.lent) != 0 {
		sh.flusher.Flush()
		sh.slots.reclaim()
	}
}

// drainBatch moves up to len(buf) packets out of the ring into slots and
// admits them. It reports whether the ring had any.
func (sh *shard) drainBatch() bool {
	n := sh.ring.dequeueBatch(sh.buf, &sh.slots)
	if n == 0 {
		return false
	}
	sh.process(sh.buf[:n])
	return true
}

// drainRing empties the ring completely, flushing the egress sink after
// every batch as the worker loop does — before commands and at shutdown,
// so barriers see every packet enqueued before them, and ahead of a
// quiescing producer's run.
func (sh *shard) drainRing() {
	for sh.drainBatch() {
		sh.flushEgress()
	}
}

// handle executes a control command at a quiescent point. Every command
// is a barrier: the ring is fully drained first.
func (sh *shard) handle(cmd func(*shard)) {
	sh.drainRing()
	cmd(sh)
}

// onAll runs fn on every shard's worker, each at its next quiescent
// point, and waits for all of them. It returns false, having run nothing,
// when the engine is closed. fn runs concurrently across shards, under
// its shard's role, and may touch role-owned state of its own shard only.
func (e *Engine) onAll(fn func(i int, sh *shard)) bool {
	e.ctl.Lock()
	defer e.ctl.Unlock()
	if e.closed.Load() {
		return false
	}
	var wg sync.WaitGroup
	wg.Add(len(e.shards))
	for i, sh := range e.shards {
		sh.cmds <- func(sh *shard) {
			fn(i, sh)
			wg.Done()
		}
	}
	wg.Wait()
	return true
}

// onOwner runs fn on the worker of the shard that owns path, at its next
// quiescent point, and waits for it. It returns false, having run
// nothing, when the engine is closed.
func (e *Engine) onOwner(path pathid.PathID, fn func(sh *shard)) bool {
	e.ctl.Lock()
	defer e.ctl.Unlock()
	if e.closed.Load() {
		return false
	}
	done := make(chan struct{})
	e.shards[pathShard(path, len(e.shards))].cmds <- func(sh *shard) {
		fn(sh)
		close(done)
	}
	<-done
	return true
}

// installLimit is InstallLimit's worker half: intern the path on this
// shard's router (so the handle matches the one producers
// stamp into packets), install or release the limit, and emit the
// FeedbackApplied trace event from the worker — the shard trace is
// single-writer, so the event must not be added from the caller's
// goroutine.
func (sh *shard) installLimit(path pathid.PathID, rate units.BitsPerSec, expires float64, peer uint32, now float64) bool {
	handle := sh.router.InternPath(path)
	if handle == 0 && len(path) > 0 {
		return false // handle space exhausted
	}
	if sh.bank == nil {
		if rate <= 0 {
			return true // releasing a limit that was never installed
		}
		sh.bank = defense.NewLimiterBank()
	}
	sh.bank.Install(handle, rate, expires)
	sh.bankDrops = sh.bank.Drops()
	sh.publishLimitCount()
	if telemetry.Compiled {
		if tel := sh.router.Telemetry(); tel != nil {
			tel.Emit(telemetry.Event{
				Time:  now,
				Type:  telemetry.EventFeedbackApplied,
				Path:  path.Key(),
				Value: float64(rate),
				Peer:  peer,
			})
		}
	}
	return true
}

// publishLimitCount refreshes the shard's installed-limit surface.
func (sh *shard) publishLimitCount() {
	n := int64(sh.bank.Active())
	sh.limitCount.Store(n)
	if sh.limitGauge != nil {
		sh.limitGauge.Set(float64(n))
	}
}

// InternPath binds path to a dense handle on the shard router that owns
// it and returns the handle (0 when the engine is closed or the router's
// handle space is exhausted). Producers stamp it into Packet.PathHandle;
// since Enqueue routes a path's packets to that same shard, the handle is
// always presented to the router that minted it — and Enqueue can route
// by the handle alone (shardFor).
// A barrier on the owning shard: call once per path, not per packet.
func (e *Engine) InternPath(path pathid.PathID) uint32 {
	var handle uint32
	e.onOwner(path, func(sh *shard) { handle = sh.router.InternPath(path) })
	return handle
}

// InstallLimit installs (rate > 0) or releases (rate <= 0) a per-path
// rate limit on the shard that owns path, ahead of router admission —
// the application point for a cluster peer's congestion feedback.
// expiresAt is the arrival-clock deadline after which the limit lapses
// unless refreshed (0 = never); peer tags the FeedbackApplied trace
// event with the advertising router's ID; now stamps that event. The
// command is a barrier on the owning shard: packets enqueued
// happens-before the call are admitted under the old limit. Returns
// false when the engine is closed, the path is empty, or the shard
// router's handle space is exhausted. Cold: called per feedback record,
// never per packet.
func (e *Engine) InstallLimit(path pathid.PathID, rate units.BitsPerSec, expiresAt float64, peer uint32, now float64) bool {
	if len(path) == 0 {
		return false
	}
	ok := false
	e.onOwner(path, func(sh *shard) { ok = sh.installLimit(path, rate, expiresAt, peer, now) })
	return ok
}

// SweepLimits reaps expired cluster limits on every shard so the
// installed-limit gauge tracks lease expiry even on idle paths. Call
// periodically from the daemon's tick loop.
func (e *Engine) SweepLimits(now float64) {
	e.onAll(func(_ int, sh *shard) {
		if sh.bank != nil {
			sh.bank.Sweep(now)
			sh.publishLimitCount()
		}
	})
}

// InstalledLimits returns the engine-wide count of active cluster
// limits, as last published by the shard workers. Lock-free; safe to
// call from health handlers.
func (e *Engine) InstalledLimits() int {
	n := 0
	for _, sh := range e.shards {
		n += int(sh.limitCount.Load())
	}
	return n
}

// Drain blocks until every packet enqueued happens-before the call has
// been processed by its shard. Concurrent Enqueues are allowed but not
// waited for.
func (e *Engine) Drain() {
	e.onAll(func(int, *shard) {}) // the barrier is the command
}

// Advance drains all rings and services every shard's output queue up to
// virtual time now — the flush at end of input, when no further arrivals
// will drive the transmitters.
func (e *Engine) Advance(now float64) {
	e.onAll(func(_ int, sh *shard) {
		sh.serve(now)
		sh.flushEgress()
	})
}

// Snapshot drains all rings and returns the deterministic merge of the
// per-shard router snapshots: counters and buffer state sum, per-path
// entries concatenate sorted by key (paths are disjoint across shards by
// construction), and the mode is the most severe of any shard's.
func (e *Engine) Snapshot() core.Snapshot {
	parts := make([]core.Snapshot, len(e.shards))
	snap := func(i int, sh *shard) { parts[i] = sh.router.Snapshot() }
	if !e.onAll(snap) {
		// Closed for good: the workers are gone and the routers are safe
		// to read directly, one caller at a time.
		e.ctl.Lock()
		defer e.ctl.Unlock()
		for i, sh := range e.shards {
			snap(i, sh)
		}
	}
	return mergeSnapshots(parts)
}

// mergeSnapshots folds per-shard snapshots into one aggregate view.
func mergeSnapshots(parts []core.Snapshot) core.Snapshot {
	out := core.Snapshot{
		Drops:      make(map[string]int64),
		Aggregates: make(map[string][]string),
	}
	for _, p := range parts {
		if p.Mode > out.Mode {
			out.Mode = p.Mode
		}
		out.QueueLen += p.QueueLen
		out.QMin += p.QMin
		out.QMax += p.QMax
		out.GuaranteedPaths += p.GuaranteedPaths
		out.Paths = append(out.Paths, p.Paths...)
		for key, members := range p.Aggregates {
			out.Aggregates[key] = append(out.Aggregates[key], members...)
		}
		out.Arrived += p.Arrived
		out.Admitted += p.Admitted
		for reason, n := range p.Drops {
			out.Drops[reason] += n
		}
		out.FilterLive += p.FilterLive
		out.FilterMemoryBytes += p.FilterMemoryBytes
		out.ControlRuns += p.ControlRuns
	}
	sort.Slice(out.Paths, func(i, j int) bool { return out.Paths[i].Key < out.Paths[j].Key })
	for key := range out.Aggregates {
		sort.Strings(out.Aggregates[key])
	}
	return out
}

// Stats returns the engine's ring-boundary counters.
func (e *Engine) Stats() Stats {
	var s Stats
	for _, sh := range e.shards {
		s.Accepted += sh.accepted.Load()
		s.RingDrops += sh.ringDrops.Load()
		s.Processed += sh.processed.Load()
		s.LimitDrops += sh.limitDrops.Load()
	}
	return s
}

// Close stops the workers after draining every ring. Enqueue returns
// false once Close has begun. Snapshot remains valid after Close.
func (e *Engine) Close() {
	e.ctl.Lock()
	defer e.ctl.Unlock()
	if e.closed.Swap(true) {
		return
	}
	for _, sh := range e.shards {
		close(sh.stop)
	}
	e.wg.Wait()
}
