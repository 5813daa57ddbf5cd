// Package cluster is the flocd-to-flocd control plane: it generalizes
// the local pushback of internal/defense into a distributed protocol
// between routers in a deployment tree (paper §VII's multi-router
// story). A flooded downstream daemon computes per-path rate limits
// from its router's admission state and pushes them upstream as
// congestion-feedback control frames (internal/wire's ControlFrame);
// upstream daemons install the limits ahead of admission and relay the
// feedback further up, so the flood is confined hop by hop toward its
// origins — NetFence's in-band congestion-policing feedback realized
// over a UDP control channel.
//
// Reliability model: control frames ride UDP with no acks. Three
// mechanisms make that dependable enough for rate limits:
//
//   - every frame carries the origin's full current limit set, so any
//     one delivered frame reconverges the receiver (frames are state,
//     not deltas);
//   - the sender retransmits recent frames with capped exponential
//     backoff (Tick), and each periodic Publish re-advertises the set;
//   - sequence numbers make application idempotent and strictly
//     monotone per origin — a reordered or duplicated frame older than
//     the last applied one is dropped as stale, never applied, until
//     that frame's lease and the sender's retransmits have run out.
//
// Installed limits carry a TTL lease: a dead downstream stops
// refreshing and its limits lapse on their own, so no failure can wedge
// an upstream forever.
//
// The package is deliberately clock-free and socket-free: every method
// takes `now` (the daemon's arrival clock) and I/O goes through the
// Transport and Installer seams, so protocol behavior is fully
// deterministic under test.
package cluster

import (
	"fmt"
	"sort"
	"sync"

	"floc/internal/core"
	"floc/internal/pathid"
	"floc/internal/telemetry"
	"floc/internal/units"
	"floc/internal/wire"
)

// Transport sends one encoded control frame to a peer's control
// address. Implementations are expected to be lossy (UDP); errors are
// counted, not retried synchronously.
type Transport interface {
	Send(peer string, frame []byte) error
}

// Installer applies one feedback record ahead of admission.
// dataplane.Engine satisfies it.
type Installer interface {
	InstallLimit(path pathid.PathID, rate units.BitsPerSec, expiresAt float64, peer uint32, now float64) bool
}

// Config parameterizes a cluster node.
type Config struct {
	// RouterID identifies this daemon in frame origins. Must be nonzero.
	RouterID uint32
	// Peers are the upstream control addresses feedback is pushed to.
	// Empty is allowed: a root-most daemon only receives.
	Peers []string
	// Transport carries frames to peers. Required when Peers is set.
	Transport Transport
	// Installer applies received feedback records. Required.
	Installer Installer
	// PacketSize is the reference packet size in bytes, used to convert
	// the router's packets/s allocations into bits/s limits. Must match
	// the router config.
	PacketSize int
	// DropFrac is the per-path interval drop fraction at which the path
	// is advertised as flooded (default 0.25). A path is released when
	// its drop fraction falls below half of DropFrac.
	DropFrac float64
	// MinLimitBits floors every advertised limit so a starving path is
	// never limited to zero by accident (default 64 kb/s).
	MinLimitBits units.BitsPerSec
	// TTL is the lease lifetime stamped on outgoing frames; installed
	// limits expire TTL seconds after application unless refreshed
	// (default 2.0, max 65.535 — it must fit the frame's uint16 millis).
	TTL float64
	// Hops is the propagation budget on originated frames: how many
	// further routers a frame may be relayed to (default 2, max
	// wire.MaxControlHops).
	Hops uint8
	// RetryBase and RetryMax bound the retransmit backoff (defaults
	// 0.1 s and 1.6 s); RetryBudget is the retransmit count per frame
	// (default 5).
	RetryBase   float64
	RetryMax    float64
	RetryBudget int
	// Telemetry, when non-nil, receives the feedback counters.
	Telemetry *telemetry.Registry
}

func (c Config) withDefaults() Config {
	if c.DropFrac == 0 {
		c.DropFrac = 0.25
	}
	if c.MinLimitBits == 0 {
		c.MinLimitBits = 64_000
	}
	if c.TTL == 0 {
		c.TTL = 2.0
	}
	if c.Hops == 0 {
		c.Hops = 2
	}
	if c.RetryBase == 0 {
		c.RetryBase = 0.1
	}
	if c.RetryMax == 0 {
		c.RetryMax = 1.6
	}
	if c.RetryBudget == 0 {
		c.RetryBudget = 5
	}
	return c
}

func (c Config) validate() error {
	switch {
	case c.RouterID == 0:
		return fmt.Errorf("cluster: router ID must be nonzero")
	case c.Installer == nil:
		return fmt.Errorf("cluster: Installer is required")
	case len(c.Peers) > 0 && c.Transport == nil:
		return fmt.Errorf("cluster: Transport is required with peers")
	case c.PacketSize <= 0:
		return fmt.Errorf("cluster: packet size %d <= 0", c.PacketSize)
	case c.DropFrac <= 0 || c.DropFrac > 1:
		return fmt.Errorf("cluster: DropFrac %v out of (0,1]", c.DropFrac)
	case c.TTL <= 0 || c.TTL > 65.535:
		return fmt.Errorf("cluster: TTL %v out of (0, 65.535]", c.TTL)
	case c.Hops > wire.MaxControlHops:
		return fmt.Errorf("cluster: hop budget %d > %d", c.Hops, wire.MaxControlHops)
	case c.RetryBase <= 0 || c.RetryMax < c.RetryBase:
		return fmt.Errorf("cluster: retry backoff [%v, %v] invalid", c.RetryBase, c.RetryMax)
	case c.RetryBudget < 0:
		return fmt.Errorf("cluster: retry budget %d < 0", c.RetryBudget)
	}
	return nil
}

// pathCounts is the per-path cumulative baseline Publish diffs against.
type pathCounts struct {
	admitted int64
	dropped  int64
}

// pendingFrame is one in-flight frame awaiting its retransmits.
type pendingFrame struct {
	buf        []byte
	seq        uint64
	originated bool // built by Publish (superseded by the next Publish)
	retries    int
	interval   float64
	nextAt     float64
}

// originState is what a node remembers of the last frame it applied from
// one downstream origin: its sequence number, its arrival time, and when
// the node may forget the origin (see HandleFrame).
type originState struct {
	seq      uint64
	recv     float64
	forgetAt float64
}

// maxPending bounds the retransmit queue; oldest entries fall off first
// (their state is superseded by everything after them anyway).
const maxPending = 8

// Node is one daemon's cluster endpoint: the downstream half computes
// and publishes feedback (Publish/Tick), the upstream half applies and
// relays received frames (HandleFrame). Safe for concurrent use; every
// method takes the daemon's arrival clock.
type Node struct {
	cfg Config

	mu       sync.Mutex
	seq      uint64
	prev     map[string]pathCounts
	prevNow  float64
	havePrev bool
	active   map[string]bool // path key -> currently advertised as limited
	pend     []*pendingFrame
	origins  map[uint32]originState
	// retrySpan is how long after its first send a frame may still be
	// retransmitted (peers are assumed to share this node's schedule).
	retrySpan float64

	// Resolved in New, so /metrics shows a zero.
	sendErrs   *telemetry.Counter
	emptyPath  *telemetry.Counter
	refused    *telemetry.Counter
	sentCtr    map[string]*telemetry.Counter
	appliedCtr map[uint32]*telemetry.Counter
	staleCtr   map[uint32]*telemetry.Counter
}

// New builds a cluster node.
func New(cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := &Node{
		cfg:        cfg,
		prev:       map[string]pathCounts{},
		active:     map[string]bool{},
		origins:    map[uint32]originState{},
		sentCtr:    map[string]*telemetry.Counter{},
		appliedCtr: map[uint32]*telemetry.Counter{},
		staleCtr:   map[uint32]*telemetry.Counter{},
	}
	for i, iv := 0, cfg.RetryBase; i < cfg.RetryBudget; i++ {
		n.retrySpan += iv
		iv = min(2*iv, cfg.RetryMax)
	}
	n.sendErrs = n.counter("floc_cluster_send_errors_total",
		"control frames the transport failed to send to a peer", "frames")
	const refusedHelp = "feedback records decoded but not installed, by reason"
	n.emptyPath = n.counter(`floc_cluster_feedback_refused_total{reason="empty_path"}`, refusedHelp, "records")
	n.refused = n.counter(`floc_cluster_feedback_refused_total{reason="refused"}`, refusedHelp, "records")
	return n, nil
}

// RouterID returns the node's router ID.
func (n *Node) RouterID() uint32 { return n.cfg.RouterID }

// Peers returns the configured upstream control addresses.
func (n *Node) Peers() []string { return n.cfg.Peers }

// limitFor computes the limit advertised for a flooded path: the
// router's guaranteed allocation converted to bits/s, falling back to
// the measured admitted rate over the interval when the allocation is
// unknown, floored at MinLimitBits.
func (n *Node) limitFor(p core.PathInfo, admittedDelta int64, interval float64) units.BitsPerSec {
	rate := p.AllocPackets.Bits(n.cfg.PacketSize)
	if rate <= 0 && interval > 0 {
		// admittedDelta packets of PacketSize bytes over the interval.
		admitted := float64(admittedDelta) * float64(units.FromPacket(n.cfg.PacketSize))
		rate = units.Bits(admitted).Per(units.Seconds(interval))
	}
	if rate < n.cfg.MinLimitBits {
		rate = n.cfg.MinLimitBits
	}
	return rate
}

// Publish diffs snap against the previous snapshot, derives the current
// per-path limit set, and advertises it to every peer as one or more
// control frames. Paths whose interval drop fraction reaches DropFrac
// (or that the router marks as attack paths) are limited; previously
// limited paths that have calmed are released with an explicit
// zero-limit record. Returns the number of records sent. The first call
// only records the baseline.
func (n *Node) Publish(snap core.Snapshot, now float64) int {
	n.mu.Lock()
	defer n.mu.Unlock()

	type rec struct {
		key  string
		path pathid.PathID
		rate units.BitsPerSec
	}
	var recs []rec
	seen := make(map[string]bool, len(snap.Paths))
	interval := now - n.prevNow
	next := make(map[string]pathCounts, len(snap.Paths))
	for _, p := range snap.Paths {
		seen[p.Key] = true
		cur := pathCounts{admitted: p.AdmittedPackets, dropped: p.DroppedPackets}
		next[p.Key] = cur
		if !n.havePrev {
			continue
		}
		base := n.prev[p.Key]
		arrived := (cur.admitted + cur.dropped) - (base.admitted + base.dropped)
		dropped := cur.dropped - base.dropped
		if arrived < 0 || dropped < 0 {
			// Counter reset (path expired and reappeared): new baseline.
			continue
		}
		dropFrac := 0.0
		if arrived > 0 {
			dropFrac = float64(dropped) / float64(arrived)
		}
		flooded := arrived > 0 && (dropFrac >= n.cfg.DropFrac || p.Attack)
		calm := dropFrac < n.cfg.DropFrac/2 && !p.Attack
		switch {
		case flooded || (n.active[p.Key] && !calm):
			path, err := pathid.Parse(p.Key)
			if err != nil || len(path) > wire.MaxPathLen {
				continue
			}
			recs = append(recs, rec{
				key:  p.Key,
				path: path,
				rate: n.limitFor(p, cur.admitted-base.admitted, interval),
			})
			n.active[p.Key] = true
		case n.active[p.Key] && calm:
			path, err := pathid.Parse(p.Key)
			if err == nil && len(path) <= wire.MaxPathLen {
				recs = append(recs, rec{key: p.Key, path: path, rate: 0})
			}
			delete(n.active, p.Key)
		}
	}
	// Paths that vanished from the snapshot while limited: release them
	// explicitly rather than waiting out the upstream TTL.
	var gone []string
	for key := range n.active {
		if !seen[key] {
			gone = append(gone, key)
		}
	}
	sort.Strings(gone)
	for _, key := range gone {
		if path, err := pathid.Parse(key); err == nil && len(path) <= wire.MaxPathLen {
			recs = append(recs, rec{key: key, path: path, rate: 0})
		}
		delete(n.active, key)
	}
	n.prev = next
	n.prevNow = now
	n.havePrev = true
	if len(recs) == 0 || len(n.cfg.Peers) == 0 {
		return 0
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].key < recs[j].key })

	// A new Publish carries the full current set: older originated
	// frames are superseded and must not be retransmitted.
	kept := n.pend[:0]
	for _, p := range n.pend {
		if !p.originated {
			kept = append(kept, p)
		}
	}
	n.pend = kept

	sent := 0
	for start := 0; start < len(recs); start += wire.MaxFeedbackRecords {
		chunk := recs[start:min(start+wire.MaxFeedbackRecords, len(recs))]
		f := wire.ControlFrame{
			Version:    wire.ControlVersion1,
			Kind:       wire.ControlFeedback,
			Hops:       n.cfg.Hops,
			Origin:     n.cfg.RouterID,
			Seq:        n.nextSeqLocked(),
			TTLMillis:  uint16(n.cfg.TTL * 1000),
			NumRecords: uint8(len(chunk)),
		}
		for i, r := range chunk {
			if err := f.Records[i].SetPath(r.path); err != nil {
				continue
			}
			f.Records[i].LimitBits = uint64(r.rate)
		}
		buf, err := wire.MarshalControlAppend(nil, &f)
		if err != nil {
			continue
		}
		n.sendLocked(buf)
		n.trackLocked(buf, f.Seq, true, now)
		sent += len(chunk)
	}
	return sent
}

// HandleFrame decodes and applies one received control frame: stale
// sequences are dropped whole, fresh records are installed through the
// Installer with a TTL lease, and — hop budget permitting — the records
// are relayed to this node's own peers under its own origin and
// sequence. Returns the number of records applied; the error is non-nil
// only for undecodable frames (classify it with wire.KindOfError).
func (n *Node) HandleFrame(buf []byte, now float64) (int, error) {
	var f wire.ControlFrame
	if _, err := wire.DecodeControl(buf, &f); err != nil {
		return 0, err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if f.Origin == n.cfg.RouterID {
		return 0, nil // own frame looped back
	}
	// Forget the origin (a restarted daemon counts from 1 again) once the
	// last applied frame's limits have lapsed and no older frame, all sent
	// before it, can still be retransmitted: TTL + retrySpan after its
	// arrival. The TTL also absorbs tick lateness and network delay.
	if last, ok := n.origins[f.Origin]; ok && f.Seq <= last.seq && now < last.forgetAt {
		n.staleCtrLocked(f.Origin).Inc()
		return 0, nil
	}
	n.origins[f.Origin] = originState{seq: f.Seq, recv: now, forgetAt: now + f.TTL() + n.retrySpan}
	applied := 0
	for i := 0; i < int(f.NumRecords); i++ {
		r := &f.Records[i]
		switch {
		case r.PathLen == 0:
			n.emptyPath.Inc()
		case n.cfg.Installer.InstallLimit(r.PathID(), r.Limit(), now+f.TTL(), f.Origin, now):
			applied++
		default:
			n.refused.Inc()
		}
	}
	if applied > 0 {
		n.appliedCtrLocked(f.Origin).Add(int64(applied))
	}
	// Relay upstream with a decremented hop budget, re-originated so the
	// next hop's staleness tracking sees one monotone stream per sender.
	if f.Hops > 0 && len(n.cfg.Peers) > 0 {
		rf := f
		rf.Hops = f.Hops - 1
		rf.Origin = n.cfg.RouterID
		rf.Seq = n.nextSeqLocked()
		if rbuf, err := wire.MarshalControlAppend(nil, &rf); err == nil {
			n.sendLocked(rbuf)
			n.trackLocked(rbuf, rf.Seq, false, now)
		}
	}
	return applied, nil
}

// Tick retransmits due pending frames with capped exponential backoff
// and prunes frames that exhausted their retry budget. Call it
// periodically (the daemon's tick loop); returns the number of frames
// resent.
func (n *Node) Tick(now float64) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	resent := 0
	kept := n.pend[:0]
	for _, p := range n.pend {
		if now >= p.nextAt {
			n.sendLocked(p.buf)
			resent++
			p.retries++
			p.interval *= 2
			if p.interval > n.cfg.RetryMax {
				p.interval = n.cfg.RetryMax
			}
			p.nextAt = now + p.interval
		}
		if p.retries < n.cfg.RetryBudget {
			kept = append(kept, p)
		}
	}
	n.pend = kept
	return resent
}

// nextSeqLocked returns the next per-origin sequence number.
func (n *Node) nextSeqLocked() uint64 {
	n.seq++
	return n.seq
}

// sendLocked pushes one frame to every peer.
func (n *Node) sendLocked(buf []byte) {
	for _, peer := range n.cfg.Peers {
		if err := n.cfg.Transport.Send(peer, buf); err != nil {
			n.sendErrs.Inc()
			continue
		}
		n.sentCtrLocked(peer).Inc()
	}
}

// trackLocked queues a frame for retransmission.
func (n *Node) trackLocked(buf []byte, seq uint64, originated bool, now float64) {
	if n.cfg.RetryBudget == 0 {
		return
	}
	n.pend = append(n.pend, &pendingFrame{
		buf:        buf,
		seq:        seq,
		originated: originated,
		retries:    0,
		interval:   n.cfg.RetryBase,
		nextAt:     now + n.cfg.RetryBase,
	})
	if len(n.pend) > maxPending {
		n.pend = n.pend[len(n.pend)-maxPending:]
	}
}

func (n *Node) sentCtrLocked(peer string) *telemetry.Counter {
	c := n.sentCtr[peer]
	if c == nil {
		c = n.counter(`floc_cluster_feedback_sent_total{peer="`+peer+`"}`,
			"control frames sent to an upstream peer", "frames")
		n.sentCtr[peer] = c
	}
	return c
}

func (n *Node) appliedCtrLocked(origin uint32) *telemetry.Counter {
	c := n.appliedCtr[origin]
	if c == nil {
		c = n.counter(fmt.Sprintf(`floc_cluster_feedback_applied_total{peer="%d"}`, origin),
			"feedback records applied, by advertising router", "records")
		n.appliedCtr[origin] = c
	}
	return c
}

func (n *Node) staleCtrLocked(origin uint32) *telemetry.Counter {
	c := n.staleCtr[origin]
	if c == nil {
		c = n.counter(fmt.Sprintf(`floc_cluster_feedback_stale_dropped_total{peer="%d"}`, origin),
			"control frames dropped as stale, by advertising router", "frames")
		n.staleCtr[origin] = c
	}
	return c
}

// counter resolves a registry counter, or a detached one when telemetry
// is off (so callers never branch).
func (n *Node) counter(name, help, unit string) *telemetry.Counter {
	if n.cfg.Telemetry != nil {
		return n.cfg.Telemetry.Counter(name, help, unit)
	}
	return telemetry.NewRegistry().Counter(name, help, unit)
}

// PeerFeedback is one downstream origin's receive state, for /healthz.
type PeerFeedback struct {
	Origin     uint32  `json:"origin"`
	LastSeq    uint64  `json:"last_seq"`
	AgeSeconds float64 `json:"age_seconds"`
}

// Health is the node's /healthz surface.
type Health struct {
	RouterID      uint32         `json:"router_id"`
	Peers         int            `json:"peers"`
	Feedback      []PeerFeedback `json:"feedback,omitempty"`
	PendingFrames int            `json:"pending_frames"`
	SendErrors    int64          `json:"send_errors,omitempty"`
}

// Health reports the node's current state, feedback sorted by origin.
func (n *Node) Health(now float64) Health {
	n.mu.Lock()
	defer n.mu.Unlock()
	h := Health{
		RouterID:      n.cfg.RouterID,
		Peers:         len(n.cfg.Peers),
		PendingFrames: len(n.pend),
		SendErrors:    n.sendErrs.Value(),
	}
	for origin, o := range n.origins {
		h.Feedback = append(h.Feedback, PeerFeedback{
			Origin:     origin,
			LastSeq:    o.seq,
			AgeSeconds: now - o.recv,
		})
	}
	sort.Slice(h.Feedback, func(i, j int) bool { return h.Feedback[i].Origin < h.Feedback[j].Origin })
	return h
}
