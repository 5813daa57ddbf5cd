package dataplane

import (
	"sync"
	"testing"

	"floc/internal/core"
	"floc/internal/netsim"
	"floc/internal/pathid"
	"floc/internal/telemetry"
)

// limitTestConfig is a small engine for limit-install tests.
func limitTestConfig(shards int) Config {
	return Config{
		Router:      core.DefaultConfig(1e9, 64*shards),
		Shards:      shards,
		RingSize:    256,
		BlockOnFull: true,
	}
}

func limitPkt(path pathid.PathID, handle uint32, size int) *netsim.Packet {
	return &netsim.Packet{
		Size:       size,
		Path:       path,
		PathKey:    path.Key(),
		PathHandle: handle,
	}
}

func TestInstallLimitDropsExcess(t *testing.T) {
	e, err := New(limitTestConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	victim := pathid.New(100, 10, 1)
	bystander := pathid.New(101, 11, 1)
	vh := e.InternPath(victim)
	bh := e.InternPath(bystander)
	if vh == 0 || bh == 0 {
		t.Fatalf("interning failed: %d %d", vh, bh)
	}

	// 1 Mb/s limit against ~12 Mb/s offered: most of the victim's
	// packets must die at the bank, none of the bystander's.
	if !e.InstallLimit(victim, 1_000_000, 0, 42, 0) {
		t.Fatal("InstallLimit failed")
	}
	if got := e.InstalledLimits(); got != 1 {
		t.Fatalf("InstalledLimits = %d, want 1", got)
	}

	for i := 0; i < 200; i++ {
		at := 0.001 * float64(i)
		e.Enqueue(limitPkt(victim, vh, 1500), at)
		e.Enqueue(limitPkt(bystander, bh, 1500), at)
	}
	e.Drain()

	st := e.Stats()
	if st.LimitDrops == 0 {
		t.Fatal("no limit drops despite 12x over the installed limit")
	}
	snap := e.Snapshot()
	var victimArrived, byArrived int64
	for _, p := range snap.Paths {
		n := p.AdmittedPackets + p.DroppedPackets
		switch p.Key {
		case victim.Key():
			victimArrived = n
		case bystander.Key():
			byArrived = n
		}
	}
	if byArrived != 200 {
		t.Fatalf("bystander: %d packets reached the router, want 200", byArrived)
	}
	if victimArrived+st.LimitDrops != 200 {
		t.Fatalf("victim: %d at router + %d limit drops != 200 offered", victimArrived, st.LimitDrops)
	}
	if victimArrived >= 200 {
		t.Fatalf("victim: all %d packets reached the router; limit had no effect", victimArrived)
	}
}

func TestInstallLimitReleaseAndExpiry(t *testing.T) {
	e, err := New(limitTestConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	path := pathid.New(7, 3, 1)
	if !e.InstallLimit(path, 5_000_000, 2.0, 1, 0) {
		t.Fatal("install failed")
	}
	if got := e.InstalledLimits(); got != 1 {
		t.Fatalf("InstalledLimits = %d, want 1", got)
	}
	// Release by rate 0.
	if !e.InstallLimit(path, 0, 0, 1, 0.5) {
		t.Fatal("release failed")
	}
	if got := e.InstalledLimits(); got != 0 {
		t.Fatalf("InstalledLimits after release = %d, want 0", got)
	}
	// Reinstall with a lease, then sweep past it.
	if !e.InstallLimit(path, 5_000_000, 2.0, 1, 1.0) {
		t.Fatal("reinstall failed")
	}
	e.SweepLimits(1.0)
	if got := e.InstalledLimits(); got != 1 {
		t.Fatalf("InstalledLimits before expiry = %d, want 1", got)
	}
	e.SweepLimits(3.0)
	if got := e.InstalledLimits(); got != 0 {
		t.Fatalf("InstalledLimits after expiry sweep = %d, want 0", got)
	}
	if !e.InstallLimit(nil, 1, 0, 1, 0) == false {
		t.Fatal("empty path must be rejected")
	}
}

func TestInstallLimitEmitsFeedbackApplied(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := limitTestConfig(1)
	cfg.Telemetry = reg
	cfg.TraceCapacity = 64
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	path := pathid.New(9, 2, 1)
	if !e.InstallLimit(path, 3_000_000, 0, 77, 1.25) {
		t.Fatal("install failed")
	}
	e.Drain()
	var found bool
	for _, ev := range e.shards[0].router.Telemetry().Trace.Events() {
		if ev.Type == telemetry.EventFeedbackApplied {
			found = true
			if ev.Path != path.Key() || ev.Peer != 77 || ev.Value != 3_000_000 || ev.Time != 1.25 {
				t.Fatalf("FeedbackApplied fields wrong: %+v", ev)
			}
		}
	}
	if !found {
		t.Fatal("no FeedbackApplied event in the shard trace")
	}
	if v := reg.GaugeValue(`floc_cluster_installed_limits{shard="0"}`); v != 1 {
		t.Fatalf("installed-limits gauge = %v, want 1", v)
	}
}

// egressRecorder collects transmitted packets (engine-wide, so it locks).
type egressRecorder struct {
	mu   sync.Mutex
	pkts []*netsim.Packet
}

func (r *egressRecorder) Emit(pkt *netsim.Packet, now float64) {
	r.mu.Lock()
	r.pkts = append(r.pkts, pkt)
	r.mu.Unlock()
}

func TestEgressSinkSeesTransmittedPackets(t *testing.T) {
	rec := &egressRecorder{}
	cfg := limitTestConfig(2)
	cfg.Egress = rec
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := pathid.New(50, 5, 1)
	h := e.InternPath(path)
	for i := 0; i < 50; i++ {
		e.Enqueue(limitPkt(path, h, 1000), 0.001*float64(i))
	}
	e.Drain()
	e.Advance(10)
	e.Close()
	rec.mu.Lock()
	n := len(rec.pkts)
	rec.mu.Unlock()
	snap := e.Snapshot()
	if int64(n) != snap.Admitted {
		t.Fatalf("egress saw %d packets, router admitted %d", n, snap.Admitted)
	}
	if n == 0 {
		t.Fatal("nothing transmitted")
	}
}

// BenchmarkLimitInstall is the limit_install family of check.sh's
// perf-gate: ns/op for one InstallLimit barrier round
// trip into the owning shard, the rate at which a daemon can absorb
// cluster feedback records.
func BenchmarkLimitInstall(b *testing.B) {
	e, err := New(limitTestConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	path := pathid.New(100, 10, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !e.InstallLimit(path, 1_000_000, 0, 1, 0) {
			b.Fatal("InstallLimit failed")
		}
	}
}
