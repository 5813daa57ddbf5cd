package cluster

import (
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
	return core.Snapshot{Paths: []core.PathInfo{{
		Key:             key,
		AllocPackets:    allocPkts,
		AdmittedPackets: admitted,
		DroppedPackets:  dropped,
	}}}
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

// TestConvergenceUnderLossAndReorder is the satellite requirement:
// with half the control frames dropped and survivors reordered, the
// upstream limit still converges within the retry budget, and stale
// sequence numbers are never applied.
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
			down.Tick(now)
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
	// A duplicate of the fresh frame is equally stale (seq equality).
	if n, _ := up.HandleFrame(mk(2, 7_000_000), 1.2); n != 0 {
		t.Fatal("duplicate frame must not be applied")
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
// the lease of the old incarnation's last frame and the old daemon's
// retransmit span run, then forgets the old sequence and applies the new
// daemon's feedback.
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
	// The frame applied at 1.5 is remembered to 1.5 + TTL 2 + retransmit
	// span 3.1 (0.1+0.2+0.4+0.8+1.6) = 6.6.

	newTr := &captureTransport{}
	restarted, err := New(downConfig(t, newTr, nil))
	if err != nil {
		t.Fatal(err)
	}
	restarted.Publish(floodSnapshot(key, 1000, 0, 250), 2.0) // baseline
	if n, _ := up.HandleFrame(publishFlood(t, restarted, newTr, key, 1, 250, 6.5), 6.5); n != 0 {
		t.Fatalf("seq 1 before the old origin is forgotten applied %d records, want 0", n)
	}
	if got := upInstall.limits[key]; got != 4_000_000 {
		t.Fatalf("limit = %v before the old origin is forgotten, want the old daemon's 4e6", got)
	}
	if n, _ := up.HandleFrame(publishFlood(t, restarted, newTr, key, 2, 250, 7.0), 7.0); n != 1 {
		t.Fatalf("seq 2 after the old origin is forgotten applied %d records, want 1", n)
	}
	if got := upInstall.limits[key]; got != 2_000_000 {
		t.Fatalf("limit = %v after the old origin is forgotten, want the restarted daemon's 2e6", got)
	}
	if h := up.Health(7.0); len(h.Feedback) != 1 || h.Feedback[0].LastSeq != 2 {
		t.Fatalf("health feedback = %+v, want origin 3 at seq 2", h.Feedback)
	}
	if v := reg.CounterValue("floc_cluster_feedback_stale_dropped_total"); v != 1 {
		t.Fatalf("stale counter = %d, want 1", v)
	}
}

// TestLowerSeqWithinLeaseIsStale: forgetting an origin waits on the last
// frame applied from it, not on the first, so a lower sequence number is
// dropped for as long as any applied frame is remembered (arrival + TTL 2
// + retransmit span 3.1).
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
		{5, 1.0, 1}, // remembered to 6.1
		{3, 2.9, 0}, // lower, within the lease
		{6, 3.0, 1}, // fresh: remembered to 8.1
		{4, 5.5, 0}, // past the first frame's lease, within the span
		{4, 6.5, 0}, // past the first frame's memory, within the second's
		{6, 8.0, 0}, // a duplicate, within the memory
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
// last frame's lease and retransmit span have run, so a receiver heard
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
	// Each origin is remembered to 1.0 + TTL 2 + retransmit span 3.1 = 6.1.
	up.Tick(6.0)
	if got := len(up.Health(6.0).Feedback); got != origins {
		t.Fatalf("%d origins reported within their windows, want %d", got, origins)
	}
	up.Tick(6.1)
	if fb := up.Health(6.1).Feedback; len(fb) != 0 {
		t.Fatalf("%d origins still reported after their windows ended", len(fb))
	}
}

// TestRelayedRetransmitOutlivesLeaseIsStale: a relay forwards a limit and
// then its release. The relay keeps retransmitting the limit frame for
// 3.1 s, past the 2 s lease of the release frame. That last retransmit
// must still be dropped as stale, or it would reinstall a released limit.
func TestRelayedRetransmitOutlivesLeaseIsStale(t *testing.T) {
	const key = "100-10-1"
	tr := &captureTransport{}
	mid, err := New(Config{RouterID: 5, Peers: []string{"up"}, Transport: tr,
		Installer: newFakeInstaller(), PacketSize: 1000})
	if err != nil {
		t.Fatal(err)
	}
	upInstall := newFakeInstaller()
	reg := telemetry.NewRegistry()
	up, err := New(Config{RouterID: 2, Installer: upInstall, PacketSize: 1000, Telemetry: reg})
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

	// Run the relay's retransmits to exhaustion; keep the last resend of
	// the limit frame (relayed seq 1) and when it went out.
	var last []byte
	lastAt := 0.0
	for step := 1; step <= 120; step++ {
		now := 1.0 + 0.05*float64(step)
		sent := len(tr.frames)
		mid.Tick(now)
		for _, buf := range tr.frames[sent:] {
			var f wire.ControlFrame
			if _, err := wire.DecodeControl(buf, &f); err != nil {
				t.Fatal(err)
			}
			if f.Seq == 1 {
				last, lastAt = buf, now
			}
		}
	}
	if lastAt <= 1.5+2.0 {
		t.Fatalf("last retransmit of the limit at %v, want after the release's lease end 3.5", lastAt)
	}
	if n, _ := up.HandleFrame(last, lastAt); n != 0 {
		t.Fatalf("retransmit at %v applied %d records, want 0", lastAt, n)
	}
	if _, ok := upInstall.limits[key]; ok {
		t.Fatalf("retransmit at %v reinstalled the released limit", lastAt)
	}
	if v := reg.CounterValue("floc_cluster_feedback_stale_dropped_total"); v != 1 {
		t.Fatalf("stale counter = %d, want 1", v)
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
// asserts re-origination, hop decrement, and termination at zero.
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
	if relayed.Origin != 2 || relayed.Hops != 0 {
		t.Fatalf("relayed frame origin=%d hops=%d, want origin=2 hops=0", relayed.Origin, relayed.Hops)
	}
	if n, _ := root.HandleFrame(rootTr.queue[0].buf, 0.6); n != 1 {
		t.Fatal("root did not apply the relayed record")
	}
	if rootInstall.peers["100-10-1"] != 2 {
		t.Fatalf("root attributes limit to %d, want the relaying mid (2)", rootInstall.peers["100-10-1"])
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

// TestTickBackoffAndBudget asserts retransmit pacing: intervals double
// up to the cap, and the frame is pruned after the budget and counted
// once as discarded.
func TestTickBackoffAndBudget(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr := &lossyTransport{src: rng.New(3), dropProb: 1.0} // every frame lost
	down, err := New(Config{
		RouterID: 3, Peers: []string{"up"}, Transport: tr,
		Installer: newFakeInstaller(), PacketSize: 1000, Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	down.Publish(floodSnapshot("9-1", 1000, 0, 100), 0)
	down.Publish(floodSnapshot("9-1", 1100, 900, 100), 0.5)
	base := tr.sent // the initial send
	if base == 0 {
		t.Fatal("publish sent nothing")
	}
	// Backoff schedule from t=0.5: retries due at 0.6, 0.8, 1.2, 2.0 and
	// 3.6 (intervals 0.1 doubling to the 1.6 cap), then the budget of
	// five is spent. Each due tick runs 1 µs after the last one's due
	// time, so rounding in now+interval cannot hold a resend back; a tick
	// 50 ms early finds nothing due.
	resends := 0
	for _, tick := range []struct {
		now    float64
		resent int
	}{
		{0.55, 0}, {0.600001, 1}, {0.75, 0}, {0.800002, 1}, {1.15, 0}, {1.200003, 1},
		{1.95, 0}, {2.000004, 1}, {3.55, 0}, {3.600005, 1}, {5.3, 0}, {10.0, 0},
	} {
		n := down.Tick(tick.now)
		if n != tick.resent {
			t.Fatalf("tick at %v resent %d frames, want %d", tick.now, n, tick.resent)
		}
		resends += n
	}
	if resends != 5 {
		t.Fatalf("resent %d times, want exactly the budget of 5", resends)
	}
	if h := down.Health(10.0); h.PendingFrames != 0 {
		t.Fatalf("pending frames = %d after budget exhaustion, want 0", h.PendingFrames)
	}
	if got := reg.CounterValue(discardedSeries("retry_budget")); got != 1 {
		t.Fatalf("retry_budget discards = %d, want 1", got)
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
