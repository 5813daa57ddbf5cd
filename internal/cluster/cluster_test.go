package cluster

import (
	"fmt"
	"maps"
	"sort"
	"strings"
	"testing"

	"floc/internal/core"
	"floc/internal/pathid"
	"floc/internal/rng"
	"floc/internal/telemetry"
	"floc/internal/units"
	"floc/internal/wire"
)

// fakeInstaller records InstallLimit calls.
type fakeInstaller struct {
	limits  map[string]units.BitsPerSec
	expires map[string]float64
	peers   map[string]uint32
	calls   int
}

func newFakeInstaller() *fakeInstaller {
	return &fakeInstaller{
		limits:  map[string]units.BitsPerSec{},
		expires: map[string]float64{},
		peers:   map[string]uint32{},
	}
}

func (in *fakeInstaller) InstallLimit(path pathid.PathID, rate units.BitsPerSec, expiresAt float64, peer uint32, now float64) bool {
	in.calls++
	key := path.Key()
	if rate <= 0 {
		delete(in.limits, key)
		delete(in.expires, key)
		return true
	}
	in.limits[key] = rate
	in.expires[key] = expiresAt
	in.peers[key] = peer
	return true
}

// inForce counts the installed limits whose lease has not run out at now:
// the limits an engine that sweeps its leases still enforces.
func (in *fakeInstaller) inForce(now float64) int {
	n := 0
	for key := range in.limits {
		if in.expires[key] > now {
			n++
		}
	}
	return n
}

// queuedFrame is one in-flight frame in the lossy transport.
type queuedFrame struct {
	buf       []byte
	deliverAt float64
	order     int // tie-break for stable delivery order
}

// lossyTransport drops and delays frames deterministically from a
// seeded source. Frames that survive are delivered by the test loop via
// deliverDue.
type lossyTransport struct {
	src      *rng.Source
	dropProb float64
	now      float64
	queue    []queuedFrame
	sent     int
	dropped  int
	next     int
}

func (t *lossyTransport) Send(peer string, frame []byte) error {
	t.sent++
	if t.src.Float64() < t.dropProb {
		t.dropped++
		return nil // lost in flight: Send itself succeeded
	}
	// Deliver after 0, 1, or 2 extra steps: adjacent frames overtake
	// each other, exercising the reorder path.
	delay := float64(t.src.Intn(3)) * 0.1
	buf := append([]byte(nil), frame...)
	t.queue = append(t.queue, queuedFrame{buf: buf, deliverAt: t.now + delay, order: t.next})
	t.next++
	return nil
}

// deliverDue hands every due frame to dst in (deliverAt, send-order).
func (t *lossyTransport) deliverDue(dst *Node, now float64) {
	var due, rest []queuedFrame
	for _, q := range t.queue {
		if q.deliverAt <= now {
			due = append(due, q)
		} else {
			rest = append(rest, q)
		}
	}
	t.queue = rest
	sort.Slice(due, func(i, j int) bool {
		if due[i].deliverAt != due[j].deliverAt {
			return due[i].deliverAt < due[j].deliverAt
		}
		return due[i].order < due[j].order
	})
	for _, q := range due {
		if _, err := dst.HandleFrame(q.buf, now); err != nil {
			panic(err)
		}
	}
}

// floodSnapshot fabricates a snapshot where path key has the given
// cumulative counters and allocation.
func floodSnapshot(key string, admitted, dropped int64, allocPkts units.PacketsPerSec) core.Snapshot {
	return floodSnapshotOf([]string{key}, admitted, dropped, allocPkts)
}

// floodSnapshotOf is floodSnapshot with the same counters on every path
// of keys.
func floodSnapshotOf(keys []string, admitted, dropped int64, allocPkts units.PacketsPerSec) core.Snapshot {
	var snap core.Snapshot
	for _, key := range keys {
		snap.Paths = append(snap.Paths, core.PathInfo{
			Key:             key,
			AllocPackets:    allocPkts,
			AdmittedPackets: admitted,
			DroppedPackets:  dropped,
		})
	}
	return snap
}

// pathKeys returns n distinct three-AS path keys: more than
// wire.MaxFeedbackRecords of them make a publish of several chunks.
func pathKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%d-10-1", 100+i)
	}
	return keys
}

func downConfig(t *testing.T, tr Transport, reg *telemetry.Registry) Config {
	t.Helper()
	return Config{
		RouterID:   3,
		Peers:      []string{"up"},
		Transport:  tr,
		Installer:  newFakeInstaller(), // the flooded node's own upstream side is unused here
		PacketSize: 1000,
		Telemetry:  reg,
	}
}

// TestConvergenceUnderLossAndReorder: with half the control frames
// dropped and survivors reordered, the upstream limit still converges
// from the periodic publishes alone, and stale sequence numbers are never
// applied. The second input sends a two-chunk publish through a relay,
// with the same loss and reordering on both hops.
func TestConvergenceUnderLossAndReorder(t *testing.T) {
	const key = "100-10-1"
	for seed := uint64(1); seed <= 5; seed++ {
		tr := &lossyTransport{src: rng.New(seed), dropProb: 0.5}
		reg := telemetry.NewRegistry()
		down, err := New(downConfig(t, tr, reg))
		if err != nil {
			t.Fatal(err)
		}
		upInstall := newFakeInstaller()
		up, err := New(Config{
			RouterID:   2,
			Installer:  upInstall,
			PacketSize: 1000,
			Telemetry:  reg,
		})
		if err != nil {
			t.Fatal(err)
		}

		// 500 pkt/s allocation, 40% interval drops: the path is flooded
		// and advertised at 500*1000*8 = 4 Mb/s every publish.
		var admitted, dropped int64
		converged := -1.0
		for step := 0; step < 60; step++ {
			now := 0.1 * float64(step)
			tr.now = now
			if step%5 == 0 { // a control-interval publish every 0.5 s
				admitted += 300
				dropped += 200
				down.Publish(floodSnapshot(key, admitted, dropped, 500), now)
			}
			tr.deliverDue(up, now)
			if converged < 0 && upInstall.limits[key] == 4_000_000 {
				converged = now
			}
		}
		if converged < 0 {
			t.Fatalf("seed %d: limit never converged (sent %d, dropped %d)", seed, tr.sent, tr.dropped)
		}
		if upInstall.peers[key] != 3 {
			t.Fatalf("seed %d: limit attributed to origin %d, want 3", seed, upInstall.peers[key])
		}
		if tr.dropped == 0 {
			t.Fatalf("seed %d: loss model dropped nothing; test is vacuous", seed)
		}
		// Reordered duplicates must have been rejected, never applied:
		// every install seen by the upstream carries the same rate, so a
		// stale frame could only have re-applied identical state — catch
		// regressions through the stale counter instead.
		stale := reg.CounterValue("floc_cluster_feedback_stale_dropped_total")
		applied := reg.CounterValue("floc_cluster_feedback_applied_total")
		if applied == 0 {
			t.Fatalf("seed %d: applied counter is zero despite convergence", seed)
		}
		if stale+applied > int64(tr.sent-tr.dropped) {
			t.Fatalf("seed %d: stale(%d)+applied(%d) exceeds delivered frames(%d)",
				seed, stale, applied, tr.sent-tr.dropped)
		}
	}
	for seed := uint64(1); seed <= 5; seed++ {
		convergeThroughRelay(t, seed)
	}
}

// convergeThroughRelay floods 40 paths at a root, which publishes them
// as two chunks every 250 ms through a mid to a leaf, both hops dropping
// half the frames and reordering the rest. Every limit must reach the
// leaf, attributed to the root, and once the paths calm the leaf must
// enforce none of them one lease after the release, give or take the two
// hops' delivery delay: each path is released by a re-advertised zero
// record or lapses with its last lease, whichever comes first.
func convergeThroughRelay(t *testing.T, seed uint64) {
	t.Helper()
	keys := pathKeys(40)
	toMid := &lossyTransport{src: rng.New(seed), dropProb: 0.5}
	toLeaf := &lossyTransport{src: rng.New(seed + 100), dropProb: 0.5}
	root, err := New(downConfig(t, toMid, nil))
	if err != nil {
		t.Fatal(err)
	}
	mid, err := New(Config{RouterID: 2, Peers: []string{"leaf"}, Transport: toLeaf,
		Installer: newFakeInstaller(), PacketSize: 1000})
	if err != nil {
		t.Fatal(err)
	}
	leafInstall := newFakeInstaller()
	leaf, err := New(Config{RouterID: 1, Installer: leafInstall, PacketSize: 1000})
	if err != nil {
		t.Fatal(err)
	}
	// Flooded (40 % drops at 500 pkt/s, so 4 Mb/s) until calmAt, then calm.
	const calmAt = 6.0
	var admitted, dropped int64
	converged := false
	for step := 0; step <= 180; step++ {
		now := 0.05 * float64(step)
		toMid.now, toLeaf.now = now, now
		if step%5 == 0 {
			admitted += 300
			if now < calmAt {
				dropped += 200
			}
			root.Publish(floodSnapshotOf(keys, admitted, dropped, 500), now)
		}
		toMid.deliverDue(mid, now)
		toLeaf.deliverDue(leaf, now)
		if now < calmAt && leafInstall.inForce(now) == len(keys) {
			converged = true
		}
		if now >= calmAt+leaseTTL+2*0.2 && leafInstall.inForce(now) != 0 {
			t.Fatalf("seed %d: leaf still limits %d of %d paths at %v, one lease after the release at %v",
				seed, leafInstall.inForce(now), len(keys), now, calmAt)
		}
	}
	if !converged {
		t.Fatalf("seed %d: the leaf never enforced all %d limits at once before the paths calmed", seed, len(keys))
	}
	for _, key := range keys {
		if leafInstall.peers[key] != 3 {
			t.Fatalf("seed %d: leaf attributes %s to origin %d, want the root (3)", seed, key, leafInstall.peers[key])
		}
	}
	if toMid.dropped == 0 || toLeaf.dropped == 0 {
		t.Fatalf("seed %d: a hop dropped nothing (%d, %d); test is vacuous", seed, toMid.dropped, toLeaf.dropped)
	}
}

// TestChunksOfOnePublishSurviveReorder: a publish of 40 flooded paths
// goes out as two chunks under one sequence number, so the second chunk
// overtaking the first leaves both applied.
func TestChunksOfOnePublishSurviveReorder(t *testing.T) {
	keys := pathKeys(40)
	tr := &captureTransport{}
	down, err := New(downConfig(t, tr, nil))
	if err != nil {
		t.Fatal(err)
	}
	upInstall := newFakeInstaller()
	up, err := New(Config{RouterID: 2, Installer: upInstall, PacketSize: 1000})
	if err != nil {
		t.Fatal(err)
	}
	down.Publish(floodSnapshotOf(keys, 1000, 0, 500), 0) // baseline
	down.Publish(floodSnapshotOf(keys, 1300, 200, 500), 0.5)
	if len(tr.frames) != 2 {
		t.Fatalf("publish of %d paths sent %d frames, want 2", len(keys), len(tr.frames))
	}
	for _, buf := range [][]byte{tr.frames[1], tr.frames[0]} {
		if _, err := up.HandleFrame(buf, 0.6); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(upInstall.limits); got != len(keys) {
		t.Fatalf("%d of %d limits installed with the chunks reversed", got, len(keys))
	}
}

// TestStaleSequenceNeverApplied delivers an older frame after a newer
// one and asserts its records are ignored.
func TestStaleSequenceNeverApplied(t *testing.T) {
	upInstall := newFakeInstaller()
	reg := telemetry.NewRegistry()
	up, err := New(Config{RouterID: 2, Installer: upInstall, PacketSize: 1000, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(seq uint64, limit uint64) []byte {
		f := wire.ControlFrame{
			Version: wire.ControlVersion1, Kind: wire.ControlFeedback,
			Origin: 9, Seq: seq, TTLMillis: 2000, NumRecords: 1,
		}
		if err := f.Records[0].SetPath(pathid.New(100, 10, 1)); err != nil {
			t.Fatal(err)
		}
		f.Records[0].LimitBits = limit
		buf, err := wire.MarshalControlAppend(nil, &f)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	if n, _ := up.HandleFrame(mk(2, 5_000_000), 1.0); n != 1 {
		t.Fatalf("fresh frame applied %d records, want 1", n)
	}
	if n, _ := up.HandleFrame(mk(1, 9_000_000), 1.1); n != 0 {
		t.Fatalf("stale frame applied %d records, want 0", n)
	}
	if got := upInstall.limits["100-10-1"]; got != 5_000_000 {
		t.Fatalf("limit = %v after stale frame, want the fresh frame's 5e6", got)
	}
	if v := reg.CounterValue("floc_cluster_feedback_stale_dropped_total"); v != 1 {
		t.Fatalf("stale counter = %d, want 1", v)
	}
	// A duplicate of the fresh frame re-applies the same state: the
	// installed limits read the same before and after.
	before := maps.Clone(upInstall.limits)
	if n, _ := up.HandleFrame(mk(2, 5_000_000), 1.2); n != 1 {
		t.Fatalf("duplicate frame applied %d records, want 1", n)
	}
	if !maps.Equal(before, upInstall.limits) {
		t.Fatalf("limits %v after the duplicate, want %v", upInstall.limits, before)
	}
}

// captureTransport keeps every frame sent, for the test to deliver.
type captureTransport struct{ frames [][]byte }

func (c *captureTransport) Send(peer string, frame []byte) error {
	c.frames = append(c.frames, append([]byte(nil), frame...))
	return nil
}

// publishFlood has down advertise key as flooded at now: a 40 % drop
// interval over the cumulative counters of the previous call. It returns
// the frame sent.
func publishFlood(t *testing.T, down *Node, tr *captureTransport, key string, n int64, alloc units.PacketsPerSec, now float64) []byte {
	t.Helper()
	sent := len(tr.frames)
	down.Publish(floodSnapshot(key, 1000+300*n, 200*n, alloc), now)
	if len(tr.frames) != sent+1 {
		t.Fatalf("publish at %v sent %d frames, want 1", now, len(tr.frames)-sent)
	}
	return tr.frames[sent]
}

// feedbackFrame encodes a one-record feedback frame from origin that
// limits path 100-10-1 to limit (0 releases it).
func feedbackFrame(t *testing.T, origin uint32, seq uint64, hops uint8, limit uint64) []byte {
	t.Helper()
	f := wire.ControlFrame{
		Version: wire.ControlVersion1, Kind: wire.ControlFeedback,
		Hops: hops, Origin: origin, Seq: seq, TTLMillis: 2000, NumRecords: 1,
	}
	if err := f.Records[0].SetPath(pathid.New(100, 10, 1)); err != nil {
		t.Fatal(err)
	}
	f.Records[0].LimitBits = limit
	buf, err := wire.MarshalControlAppend(nil, &f)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestRestartedOriginHeardAfterLease: a restarted downstream daemon
// numbers its frames from 1 again. Its upstream drops them as stale while
// the lease of the old incarnation's last frame runs, then forgets the
// old sequence and applies the new daemon's feedback.
func TestRestartedOriginHeardAfterLease(t *testing.T) {
	const key = "100-10-1"
	upInstall := newFakeInstaller()
	reg := telemetry.NewRegistry()
	up, err := New(Config{RouterID: 2, Installer: upInstall, PacketSize: 1000, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	oldTr := &captureTransport{}
	old, err := New(downConfig(t, oldTr, nil))
	if err != nil {
		t.Fatal(err)
	}
	old.Publish(floodSnapshot(key, 1000, 0, 500), 0) // baseline
	for i, now := range []float64{0.5, 1.0, 1.5} {   // seq 1..3, 4 Mb/s
		if n, _ := up.HandleFrame(publishFlood(t, old, oldTr, key, int64(i+1), 500, now), now); n != 1 {
			t.Fatalf("old daemon's frame at %v applied %d records, want 1", now, n)
		}
	}
	// The frame applied at 1.5 is remembered to 1.5 + TTL 2 = 3.5.

	newTr := &captureTransport{}
	restarted, err := New(downConfig(t, newTr, nil))
	if err != nil {
		t.Fatal(err)
	}
	restarted.Publish(floodSnapshot(key, 1000, 0, 250), 2.0) // baseline
	if n, _ := up.HandleFrame(publishFlood(t, restarted, newTr, key, 1, 250, 3.4), 3.4); n != 0 {
		t.Fatalf("seq 1 before the old origin is forgotten applied %d records, want 0", n)
	}
	if got := upInstall.limits[key]; got != 4_000_000 {
		t.Fatalf("limit = %v before the old origin is forgotten, want the old daemon's 4e6", got)
	}
	if n, _ := up.HandleFrame(publishFlood(t, restarted, newTr, key, 2, 250, 3.6), 3.6); n != 1 {
		t.Fatalf("seq 2 after the old origin is forgotten applied %d records, want 1", n)
	}
	if got := upInstall.limits[key]; got != 2_000_000 {
		t.Fatalf("limit = %v after the old origin is forgotten, want the restarted daemon's 2e6", got)
	}
	if h := up.Health(3.6); len(h.Feedback) != 1 || h.Feedback[0].LastSeq != 2 {
		t.Fatalf("health feedback = %+v, want origin 3 at seq 2", h.Feedback)
	}
	if v := reg.CounterValue("floc_cluster_feedback_stale_dropped_total"); v != 1 {
		t.Fatalf("stale counter = %d, want 1", v)
	}
}

// TestLowerSeqWithinLeaseIsStale: forgetting an origin waits on the last
// frame applied from it, not on the first, so a lower sequence number is
// dropped for as long as any applied frame is remembered (arrival + TTL
// 2). A duplicate of the last frame is applied again, and renews it.
func TestLowerSeqWithinLeaseIsStale(t *testing.T) {
	upInstall := newFakeInstaller()
	up, err := New(Config{RouterID: 2, Installer: upInstall, PacketSize: 1000})
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		seq     uint64
		now     float64
		applied int
	}{
		{5, 1.0, 1}, // remembered to 3.0
		{3, 2.9, 0}, // lower, within the lease
		{6, 3.0, 1}, // fresh: remembered to 5.0
		{4, 4.0, 0}, // past the first frame's memory, within the second's
		{6, 4.5, 1}, // a duplicate, the same state: remembered to 6.5
		{5, 6.0, 0}, // lower, within the renewed memory
	} {
		if n, _ := up.HandleFrame(feedbackFrame(t, 9, step.seq, 0, 1_000_000*step.seq), step.now); n != step.applied {
			t.Fatalf("seq %d at %v applied %d records, want %d", step.seq, step.now, n, step.applied)
		}
	}
	if got := upInstall.limits["100-10-1"]; got != 6_000_000 {
		t.Fatalf("limit = %v, want seq 6's 6e6", got)
	}
}

// TestOriginsForgottenAfterLease: an origin is remembered only until its
// last frame's lease has run, so a receiver heard
// by many short-lived origins holds none of them once Tick passes their
// windows, and /healthz lists none. Nor does the registry grow with
// them: the feedback counters carry no origin label.
func TestOriginsForgottenAfterLease(t *testing.T) {
	reg := telemetry.NewRegistry()
	up, err := New(Config{RouterID: 2, Installer: newFakeInstaller(), PacketSize: 1000, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	const origins = 10_000
	var oneOrigin int
	for i := uint32(0); i < origins; i++ {
		if n, _ := up.HandleFrame(feedbackFrame(t, 100+i, 1, 0, 1_000_000), 1.0); n != 1 {
			t.Fatalf("origin %d: applied %d records, want 1", 100+i, n)
		}
		if i == 0 {
			oneOrigin = len(reg.Names())
		}
	}
	if got := len(reg.Names()); got != oneOrigin {
		t.Fatalf("registry holds %d series after %d origins, %d after one", got, origins, oneOrigin)
	}
	// Each origin is remembered to 1.0 + TTL 2 = 3.0.
	up.Tick(2.9)
	if got := len(up.Health(2.9).Feedback); got != origins {
		t.Fatalf("%d origins reported within their windows, want %d", got, origins)
	}
	up.Tick(3.0)
	if fb := up.Health(3.0).Feedback; len(fb) != 0 {
		t.Fatalf("%d origins still reported after their windows ended", len(fb))
	}
}

// TestRelayedRetransmitOutlivesLeaseIsStale: a relay forwards a limit and
// then its release, each exactly once and under the origin's own
// sequence. It resends nothing afterwards, so nothing it sends later can
// reinstall the released limit.
func TestRelayedRetransmitOutlivesLeaseIsStale(t *testing.T) {
	const key = "100-10-1"
	tr := &captureTransport{}
	mid, err := New(Config{RouterID: 5, Peers: []string{"up"}, Transport: tr,
		Installer: newFakeInstaller(), PacketSize: 1000})
	if err != nil {
		t.Fatal(err)
	}
	upInstall := newFakeInstaller()
	up, err := New(Config{RouterID: 2, Installer: upInstall, PacketSize: 1000})
	if err != nil {
		t.Fatal(err)
	}
	relay := func(seq, limit uint64, now float64) []byte {
		sent := len(tr.frames)
		if _, err := mid.HandleFrame(feedbackFrame(t, 9, seq, 1, limit), now); err != nil {
			t.Fatal(err)
		}
		if len(tr.frames) != sent+1 {
			t.Fatalf("relay at %v sent %d frames, want 1", now, len(tr.frames)-sent)
		}
		var f wire.ControlFrame
		if _, err := wire.DecodeControl(tr.frames[sent], &f); err != nil {
			t.Fatal(err)
		}
		if f.Origin != 9 || f.Seq != seq {
			t.Fatalf("relayed frame origin=%d seq=%d, want origin=9 seq=%d", f.Origin, f.Seq, seq)
		}
		return tr.frames[sent]
	}
	if n, _ := up.HandleFrame(relay(1, 4_000_000, 1.0), 1.0); n != 1 {
		t.Fatalf("relayed limit applied %d records, want 1", n)
	}
	if n, _ := up.HandleFrame(relay(2, 0, 1.5), 1.5); n != 1 {
		t.Fatalf("relayed release applied %d records, want 1", n)
	}
	if _, ok := upInstall.limits[key]; ok {
		t.Fatal("limit still installed after the release")
	}
	// Well past the release's lease, the relay has sent nothing more.
	for step := 1; step <= 120; step++ {
		mid.Tick(1.5 + 0.05*float64(step))
	}
	if len(tr.frames) != 2 {
		t.Fatalf("relay sent %d frames for the 2 it received", len(tr.frames))
	}
}

// TestReleaseOnCalm asserts a calmed path is released with an explicit
// zero-limit record.
func TestReleaseOnCalm(t *testing.T) {
	tr := &lossyTransport{src: rng.New(7), dropProb: 0}
	down, err := New(downConfig(t, tr, nil))
	if err != nil {
		t.Fatal(err)
	}
	upInstall := newFakeInstaller()
	up, err := New(Config{RouterID: 2, Installer: upInstall, PacketSize: 1000})
	if err != nil {
		t.Fatal(err)
	}
	const key = "42-7-1"
	down.Publish(floodSnapshot(key, 1000, 0, 100), 0) // baseline
	down.Publish(floodSnapshot(key, 1300, 200, 100), 0.5)
	tr.now = 0.5
	tr.deliverDue(up, 0.6)
	if upInstall.limits[key] == 0 {
		t.Fatal("flooded path not limited")
	}
	// Calm interval: no drops at all.
	down.Publish(floodSnapshot(key, 1800, 200, 100), 1.0)
	tr.now = 1.0
	tr.deliverDue(up, 1.1)
	if _, limited := upInstall.limits[key]; limited {
		t.Fatal("calmed path still limited; release record missing or ignored")
	}
}

// TestRelayDecrementsHops drives a frame through a middle node and
// asserts pass-through (origin and sequence kept), hop decrement, and
// termination at zero.
func TestRelayDecrementsHops(t *testing.T) {
	rootInstall := newFakeInstaller()
	root, err := New(Config{RouterID: 1, Installer: rootInstall, PacketSize: 1000})
	if err != nil {
		t.Fatal(err)
	}
	rootTr := &lossyTransport{src: rng.New(1), dropProb: 0}
	midInstall := newFakeInstaller()
	mid, err := New(Config{
		RouterID: 2, Peers: []string{"root"}, Transport: rootTr,
		Installer: midInstall, PacketSize: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}

	f := wire.ControlFrame{
		Version: wire.ControlVersion1, Kind: wire.ControlFeedback,
		Hops: 1, Origin: 3, Seq: 1, TTLMillis: 2000, NumRecords: 1,
	}
	if err := f.Records[0].SetPath(pathid.New(100, 10, 1)); err != nil {
		t.Fatal(err)
	}
	f.Records[0].LimitBits = 2_000_000
	buf, err := wire.MarshalControlAppend(nil, &f)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := mid.HandleFrame(buf, 0.5); n != 1 {
		t.Fatal("mid did not apply the leaf's record")
	}
	if len(rootTr.queue) != 1 {
		t.Fatalf("mid relayed %d frames, want 1", len(rootTr.queue))
	}
	var relayed wire.ControlFrame
	if _, err := wire.DecodeControl(rootTr.queue[0].buf, &relayed); err != nil {
		t.Fatal(err)
	}
	if relayed.Origin != 3 || relayed.Seq != 1 || relayed.Hops != 0 {
		t.Fatalf("relayed frame origin=%d seq=%d hops=%d, want origin=3 seq=1 hops=0",
			relayed.Origin, relayed.Seq, relayed.Hops)
	}
	if n, _ := root.HandleFrame(rootTr.queue[0].buf, 0.6); n != 1 {
		t.Fatal("root did not apply the relayed record")
	}
	if rootInstall.peers["100-10-1"] != 3 {
		t.Fatalf("root attributes limit to %d, want the originating leaf (3)", rootInstall.peers["100-10-1"])
	}
	// Hops exhausted: the root (were it mid-like) must not relay further.
	// Re-deliver to a node with peers and assert no send happens.
	tr2 := &lossyTransport{src: rng.New(2), dropProb: 0}
	end, err := New(Config{
		RouterID: 5, Peers: []string{"beyond"}, Transport: tr2,
		Installer: newFakeInstaller(), PacketSize: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := end.HandleFrame(rootTr.queue[0].buf, 0.7); err != nil {
		t.Fatal(err)
	}
	if tr2.sent != 0 {
		t.Fatalf("hops=0 frame was relayed %d times; budget not enforced", tr2.sent)
	}
}

// TestTickBackoffAndBudget: Tick sends nothing, even when every frame
// is lost; what repairs loss is the next publish. A released path is
// advertised at rate 0 in each publish for one lease, then no more.
func TestTickBackoffAndBudget(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr := &captureTransport{} // nothing it carries is ever delivered
	down, err := New(Config{
		RouterID: 3, Peers: []string{"up"}, Transport: tr,
		Installer: newFakeInstaller(), PacketSize: 1000, Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	down.Publish(floodSnapshot("9-1", 1000, 0, 100), 0)
	if n := down.Publish(floodSnapshot("9-1", 1100, 900, 100), 0.5); n != 1 || len(tr.frames) != 1 {
		t.Fatalf("flooded publish sent %d records in %d frames, want 1 in 1", n, len(tr.frames))
	}
	for now := 0.55; now < 10; now += 0.05 {
		down.Tick(now)
	}
	if len(tr.frames) != 1 {
		t.Fatalf("Tick sent %d frames, want none", len(tr.frames)-1)
	}
	// The path calms at 10.0: released at rate 0 in the publishes at 10.0,
	// 10.25, ..., 11.75, inside the lease that ends at 12.0, and in none
	// after it.
	for i := 0; i < 12; i++ {
		now := 10.0 + 0.25*float64(i)
		sent := len(tr.frames)
		n := down.Publish(floodSnapshot("9-1", 2000+int64(i)*100, 900, 100), now)
		want := 0
		if now < 10.0+leaseTTL {
			want = 1
		}
		if n != want || len(tr.frames)-sent != want {
			t.Fatalf("publish at %v sent %d records in %d frames, want %d", now, n, len(tr.frames)-sent, want)
		}
		if want == 0 {
			continue
		}
		var f wire.ControlFrame
		if _, err := wire.DecodeControl(tr.frames[sent], &f); err != nil {
			t.Fatal(err)
		}
		if f.NumRecords != 1 || f.Records[0].LimitBits != 0 {
			t.Fatalf("publish at %v advertised %d records, limit %d; want one release", now, f.NumRecords, f.Records[0].LimitBits)
		}
	}
	var text strings.Builder
	reg.WriteText(&text)
	if strings.Contains(text.String(), "retry_budget") {
		t.Fatal("a retry_budget discard series is exported with nothing to retry")
	}
}

// TestHealthSurface asserts the /healthz payload fields.
func TestHealthSurface(t *testing.T) {
	upInstall := newFakeInstaller()
	up, err := New(Config{RouterID: 2, Peers: []string{"a", "b"},
		Transport: &lossyTransport{src: rng.New(4)}, Installer: upInstall, PacketSize: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := up.HandleFrame(oneRecordFrame(t, 3, 11), 2.0); err != nil {
		t.Fatal(err)
	}
	h := up.Health(3.5)
	if h.RouterID != 2 || h.Peers != 2 {
		t.Fatalf("health identity wrong: %+v", h)
	}
	if len(h.Feedback) != 1 || h.Feedback[0].Origin != 3 || h.Feedback[0].LastSeq != 11 {
		t.Fatalf("health feedback wrong: %+v", h.Feedback)
	}
	if got := h.Feedback[0].AgeSeconds; got < 1.499 || got > 1.501 {
		t.Fatalf("feedback age = %v, want 1.5", got)
	}
}

// refusingInstaller refuses every limit, as an engine that is closed or
// whose handle space is exhausted does.
type refusingInstaller struct{ calls int }

func (in *refusingInstaller) InstallLimit(pathid.PathID, units.BitsPerSec, float64, uint32, float64) bool {
	in.calls++
	return false
}

// TestRefusedFeedbackIsCounted: a record with an empty path decodes but
// is never offered to the Installer, a record the Installer refuses is
// not applied, and a frame of the node's own origin that loops back is
// discarded; each is counted by reason, on a series that exists from the
// start and carries no peer label.
func TestRefusedFeedbackIsCounted(t *testing.T) {
	in := &refusingInstaller{}
	reg := telemetry.NewRegistry()
	up, err := New(Config{RouterID: 2, Installer: in, PacketSize: 1000, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	const empty = `floc_cluster_feedback_refused_total{reason="empty_path"}`
	const refused = `floc_cluster_feedback_refused_total{reason="refused"}`
	ownOrigin := discardedSeries("own_origin")
	var text strings.Builder
	reg.WriteText(&text)
	for _, series := range []string{empty, refused, ownOrigin,
		"floc_cluster_feedback_applied_total", "floc_cluster_feedback_stale_dropped_total"} {
		if !strings.Contains(text.String(), series+" 0\n") {
			t.Fatalf("%s is not exported at zero before any frame", series)
		}
	}
	f := wire.ControlFrame{
		Version: wire.ControlVersion1, Kind: wire.ControlFeedback,
		Origin: 9, Seq: 1, TTLMillis: 2000, NumRecords: 3,
	}
	for i, p := range []pathid.PathID{pathid.New(100, 10, 1), nil, pathid.New(200, 20, 1)} {
		if err := f.Records[i].SetPath(p); err != nil {
			t.Fatal(err)
		}
		f.Records[i].LimitBits = 5_000_000
	}
	buf, err := wire.MarshalControlAppend(nil, &f)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := up.HandleFrame(buf, 1.0); err != nil || n != 0 {
		t.Fatalf("HandleFrame = %d, %v; want 0 applied", n, err)
	}
	if in.calls != 2 {
		t.Fatalf("Installer offered %d records, want the 2 with a path", in.calls)
	}
	if got := reg.CounterValue(empty); got != 1 {
		t.Fatalf("empty_path = %d, want 1", got)
	}
	if got := reg.CounterValue(refused); got != 2 {
		t.Fatalf("refused = %d, want 2", got)
	}
	if got := reg.CounterValue("floc_cluster_feedback_applied_total"); got != 0 {
		t.Fatalf("applied = %d, want 0", got)
	}
	if n, err := up.HandleFrame(oneRecordFrame(t, 2, 1), 1.0); n != 0 || err != nil || in.calls != 2 {
		t.Fatalf("HandleFrame(own origin) = %d, %v with %d offers; want 0 applied, none offered", n, err, in.calls-2)
	}
	if got := reg.CounterValue(ownOrigin); got != 1 {
		t.Fatalf("own_origin = %d, want 1", got)
	}
}

// oneRecordFrame marshals a valid feedback frame from origin with one
// record limiting path 1-2.
func oneRecordFrame(t *testing.T, origin uint32, seq uint64) []byte {
	t.Helper()
	f := wire.ControlFrame{
		Version: wire.ControlVersion1, Kind: wire.ControlFeedback,
		Origin: origin, Seq: seq, TTLMillis: 2000, NumRecords: 1,
	}
	if err := f.Records[0].SetPath(pathid.New(1, 2)); err != nil {
		t.Fatal(err)
	}
	f.Records[0].LimitBits = 5_000_000
	buf, err := wire.MarshalControlAppend(nil, &f)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestTrailingBytesRefuseTheDatagram: a control datagram carries one
// frame, so a valid frame followed by anything is refused whole, as
// framing, before a record is installed. The daemon reads into a buffer
// one byte longer than any frame, so an oversize datagram arrives in the
// same shape.
func TestTrailingBytesRefuseTheDatagram(t *testing.T) {
	in := newFakeInstaller()
	up, err := New(Config{RouterID: 2, Installer: in, PacketSize: 1000})
	if err != nil {
		t.Fatal(err)
	}
	frame := oneRecordFrame(t, 9, 1)
	oversize := append(append([]byte(nil), frame...), make([]byte, wire.MaxControlEncodedLen+1-len(frame))...)
	for _, buf := range [][]byte{append(frame, 0), oversize} {
		n, err := up.HandleFrame(buf, 1.0)
		if n != 0 || wire.KindOfError(err) != wire.ErrKindFraming {
			t.Fatalf("HandleFrame(%d bytes after the frame) = %d, %v; want 0 applied, a framing error",
				len(buf)-len(frame), n, err)
		}
	}
	if in.calls != 0 {
		t.Fatalf("Installer offered %d records from refused datagrams", in.calls)
	}
	if n, err := up.HandleFrame(frame, 1.0); n != 1 || err != nil {
		t.Fatalf("HandleFrame(the frame alone) = %d, %v; want 1 applied", n, err)
	}
}

// discardedSeries is the one counter family for frames a node drops
// without applying or acknowledging them; it carries no peer label.
func discardedSeries(reason string) string {
	return `floc_cluster_frames_discarded_total{reason="` + reason + `"}`
}
