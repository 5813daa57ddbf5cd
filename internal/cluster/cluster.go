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
// Reliability model: control frames ride UDP with no acks and are
// never retransmitted. Frames are state, not deltas:
//
//   - every periodic Publish carries the origin's full current limit
//     set, and re-advertises each release for one lease, so the next
//     delivered publish repairs whatever a lost one carried;
//   - all chunks of one publish share its sequence number, and a frame
//     whose number is below the last applied one from its origin is
//     dropped as stale, never applied, for one lease after that frame;
//   - relays pass frames through with their origin and sequence, so
//     every receiver sees each origin's own stream.
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
	// Telemetry, when non-nil, receives the feedback counters.
	Telemetry *telemetry.Registry
}

// The protocol's fixed parameters. Every daemon of a deployment must
// share them: a receiver remembers an origin for one lease, the span for
// which its sender re-advertises a release.
const (
	// dropFrac is the per-path interval drop fraction at which the path
	// is advertised as flooded. A path is released when its drop
	// fraction falls below half of dropFrac.
	dropFrac = 0.25
	// minLimitBits floors every advertised limit so a starving path is
	// never limited to zero by accident.
	minLimitBits units.BitsPerSec = 64_000
	// leaseTTL is the lease lifetime, in seconds, stamped on outgoing
	// frames; installed limits expire leaseTTL after application unless
	// refreshed, and a released path is advertised at rate 0 for
	// leaseTTL. It must fit the frame's uint16 milliseconds.
	leaseTTL = 2.0
	// hopBudget is the propagation budget on originated frames: how many
	// further routers a frame may be relayed to (at most
	// wire.MaxControlHops).
	hopBudget = 2
)

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
	}
	return nil
}

// pathCounts is the per-path cumulative baseline Publish diffs against.
type pathCounts struct {
	admitted int64
	dropped  int64
}

// originState is what a node remembers of the last frame it applied from
// one downstream origin: its sequence number, its arrival time, and when
// the node may forget the origin (see HandleFrame).
type originState struct {
	seq      uint64
	recv     float64
	forgetAt float64
}

// Node is one daemon's cluster endpoint: the downstream half computes
// and publishes feedback (Publish), the upstream half applies and relays
// received frames (HandleFrame) and forgets silent origins (Tick). Safe
// for concurrent use; every method takes the daemon's arrival clock.
type Node struct {
	cfg Config

	mu       sync.Mutex
	seq      uint64
	prev     map[string]pathCounts
	prevNow  float64
	havePrev bool
	active   map[string]bool    // path key -> currently advertised as limited
	released map[string]float64 // path key -> when its release stops being advertised
	origins  map[uint32]originState

	// Resolved in New, so /metrics shows a zero.
	sendErrs  *telemetry.Counter
	emptyPath *telemetry.Counter
	refused   *telemetry.Counter
	ownOrigin *telemetry.Counter
	applied   *telemetry.Counter
	stale     *telemetry.Counter
	sentCtr   map[string]*telemetry.Counter
}

// New builds a cluster node.
func New(cfg Config) (*Node, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := &Node{
		cfg:      cfg,
		prev:     map[string]pathCounts{},
		active:   map[string]bool{},
		released: map[string]float64{},
		origins:  map[uint32]originState{},
		sentCtr:  map[string]*telemetry.Counter{},
	}
	n.sendErrs = n.counter("floc_cluster_send_errors_total",
		"control frames the transport failed to send to a peer", "frames")
	const refusedHelp = "feedback records decoded but not installed, by reason"
	n.emptyPath = n.counter(`floc_cluster_feedback_refused_total{reason="empty_path"}`, refusedHelp, "records")
	n.refused = n.counter(`floc_cluster_feedback_refused_total{reason="refused"}`, refusedHelp, "records")
	n.ownOrigin = n.counter(`floc_cluster_frames_discarded_total{reason="own_origin"}`,
		"control frames discarded unapplied, by reason", "frames")
	n.applied = n.counter("floc_cluster_feedback_applied_total",
		"feedback records applied", "records")
	n.stale = n.counter("floc_cluster_feedback_stale_dropped_total",
		"control frames dropped as stale", "frames")
	return n, nil
}

// RouterID returns the node's router ID.
func (n *Node) RouterID() uint32 { return n.cfg.RouterID }

// Peers returns the configured upstream control addresses.
func (n *Node) Peers() []string { return n.cfg.Peers }

// limitFor computes the limit advertised for a flooded path: the
// router's guaranteed allocation converted to bits/s, falling back to
// the measured admitted rate over the interval when the allocation is
// unknown, floored at minLimitBits.
func (n *Node) limitFor(p core.PathInfo, admittedDelta int64, interval float64) units.BitsPerSec {
	rate := p.AllocPackets.Bits(n.cfg.PacketSize)
	if rate <= 0 && interval > 0 {
		// admittedDelta packets of PacketSize bytes over the interval.
		admitted := float64(admittedDelta) * float64(units.FromPacket(n.cfg.PacketSize))
		rate = units.Bits(admitted).Per(units.Seconds(interval))
	}
	if rate < minLimitBits {
		rate = minLimitBits
	}
	return rate
}

// Publish diffs snap against the previous snapshot, derives the current
// per-path limit set, and advertises it to every peer as one or more
// control frames. Paths whose interval drop fraction reaches dropFrac
// (or that the router marks as attack paths) are limited; previously
// limited paths that have calmed or vanished are released with a
// zero-limit record in every publish for leaseTTL. All frames of one
// publish share one sequence number. Returns the number of records sent.
// The first call only records the baseline.
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
		frac := 0.0
		if arrived > 0 {
			frac = float64(dropped) / float64(arrived)
		}
		flooded := arrived > 0 && (frac >= dropFrac || p.Attack)
		calm := frac < dropFrac/2 && !p.Attack
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
			delete(n.released, p.Key)
		case n.active[p.Key] && calm:
			delete(n.active, p.Key)
			n.released[p.Key] = now + leaseTTL
		}
	}
	// Paths that vanished from the snapshot while limited are released
	// too, rather than left to the upstream lease.
	for key := range n.active {
		if !seen[key] {
			delete(n.active, key)
			n.released[key] = now + leaseTTL
		}
	}
	// A release is re-advertised for one lease, so that any one publish
	// delivered in that span releases the path upstream.
	for key, until := range n.released {
		if now >= until {
			delete(n.released, key)
		} else if path, err := pathid.Parse(key); err == nil {
			recs = append(recs, rec{key: key, path: path, rate: 0})
		}
	}
	n.prev = next
	n.prevNow = now
	n.havePrev = true
	if len(recs) == 0 || len(n.cfg.Peers) == 0 {
		return 0
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].key < recs[j].key })

	seq := n.nextSeqLocked()
	sent := 0
	for start := 0; start < len(recs); start += wire.MaxFeedbackRecords {
		chunk := recs[start:min(start+wire.MaxFeedbackRecords, len(recs))]
		f := wire.ControlFrame{
			Version:    wire.ControlVersion1,
			Kind:       wire.ControlFeedback,
			Hops:       hopBudget,
			Origin:     n.cfg.RouterID,
			Seq:        seq,
			TTLMillis:  leaseTTL * 1000,
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
		sent += len(chunk)
	}
	return sent
}

// HandleFrame decodes and applies one received control frame: stale
// sequences are dropped whole, fresh records are installed through the
// Installer with a TTL lease, and — hop budget permitting — the frame is
// relayed to this node's own peers with its origin and sequence. buf is
// one control datagram, so bytes after its frame refuse it whole. Returns
// the number of records applied; the error is non-nil only for
// undecodable datagrams (classify it with wire.KindOfError).
func (n *Node) HandleFrame(buf []byte, now float64) (int, error) {
	var f wire.ControlFrame
	used, err := wire.DecodeControl(buf, &f)
	if err != nil {
		return 0, err
	}
	if used != len(buf) {
		return 0, wire.ErrTrailing
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if f.Origin == n.cfg.RouterID {
		n.ownOrigin.Inc() // own frame looped back
		return 0, nil
	}
	// Chunks of one publish share its sequence number, so only a lower one
	// is stale; a duplicate re-applies the same state. Forget the origin (a
	// restarted daemon counts from 1 again) one TTL after the arrival of
	// the last frame applied from it: every limit that frame installed has
	// lapsed by then, so only a frame delayed in the network for longer is
	// applied as fresh.
	if last, ok := n.origins[f.Origin]; ok && f.Seq < last.seq && now < last.forgetAt {
		n.stale.Inc()
		return 0, nil
	}
	n.origins[f.Origin] = originState{seq: f.Seq, recv: now, forgetAt: now + f.TTL()}
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
	n.applied.Add(int64(applied))
	// Relay upstream with a decremented hop budget, keeping the origin and
	// sequence, so every hop tracks staleness per origin.
	if f.Hops > 0 && len(n.cfg.Peers) > 0 {
		f.Hops--
		if rbuf, err := wire.MarshalControlAppend(nil, &f); err == nil {
			n.sendLocked(rbuf)
		}
	}
	return applied, nil
}

// Tick forgets origins whose memory (see HandleFrame) has ended. Call it
// periodically (the daemon's tick loop).
func (n *Node) Tick(now float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for origin, o := range n.origins {
		if now >= o.forgetAt {
			delete(n.origins, origin)
		}
	}
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

func (n *Node) sentCtrLocked(peer string) *telemetry.Counter {
	c := n.sentCtr[peer]
	if c == nil {
		c = n.counter(`floc_cluster_feedback_sent_total{peer="`+peer+`"}`,
			"control frames sent to an upstream peer", "frames")
		n.sentCtr[peer] = c
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
	RouterID   uint32         `json:"router_id"`
	Peers      int            `json:"peers"`
	Feedback   []PeerFeedback `json:"feedback,omitempty"`
	SendErrors int64          `json:"send_errors,omitempty"`
}

// Health reports the node's current state, feedback sorted by origin.
func (n *Node) Health(now float64) Health {
	n.mu.Lock()
	defer n.mu.Unlock()
	h := Health{
		RouterID:   n.cfg.RouterID,
		Peers:      len(n.cfg.Peers),
		SendErrors: n.sendErrs.Value(),
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
