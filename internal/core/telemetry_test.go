package core

import (
	"math"
	"slices"
	"testing"

	"floc/internal/netsim"
	"floc/internal/pathid"
	"floc/internal/telemetry"
)

// needTelemetry skips a test that reads what the router emits when the
// build compiles emission out (-tags flocnotelemetry).
func needTelemetry(t *testing.T) {
	t.Helper()
	if !telemetry.Compiled {
		t.Skip("telemetry is compiled out")
	}
}

// TestDropReasonExhaustiveness is the guard demanded by the label-table
// refactor: every DropReason below numDropReasons must carry a stable,
// unique, parseable label, and Snapshot must surface all of them even when
// a reason has never fired.
func TestDropReasonExhaustiveness(t *testing.T) {
	seen := map[string]DropReason{}
	for reason := DropReason(0); reason < numDropReasons; reason++ {
		label := reason.String()
		if label == "" || label == "unknown" {
			t.Fatalf("drop reason %d has no stable label", reason)
		}
		if prev, dup := seen[label]; dup {
			t.Fatalf("label %q reused by reasons %d and %d", label, prev, reason)
		}
		seen[label] = reason
		back, ok := ParseDropReason(label)
		if !ok || back != reason {
			t.Fatalf("ParseDropReason(%q) = %v, %v; want %v", label, back, ok, reason)
		}
	}
	if DropReason(250).String() != "unknown" {
		t.Fatal("out-of-range reason must stringify as unknown")
	}
	if _, ok := ParseDropReason("nonsense"); ok {
		t.Fatal("ParseDropReason must reject unknown labels")
	}

	r := newTestRouter(t, nil)
	snap := r.Snapshot()
	if len(snap.Drops) != int(numDropReasons) {
		t.Fatalf("Snapshot.Drops has %d entries, want %d", len(snap.Drops), numDropReasons)
	}
	for reason := DropReason(0); reason < numDropReasons; reason++ {
		if _, ok := snap.Drops[reason.String()]; !ok {
			t.Fatalf("Snapshot.Drops missing %q", reason.String())
		}
	}
}

// TestEveryDropReasonHasEventLabel ties the drop-reason labels to the
// telemetry event stream: a PacketDropped event's Reason must round-trip
// back to the originating DropReason.
func TestEveryDropReasonHasEventLabel(t *testing.T) {
	needTelemetry(t)
	r := newTestRouter(t, nil)
	r.SetTelemetry(telemetry.New(telemetry.Options{TraceCapacity: 16}))
	d := &driver{r: r}
	path := pathid.New(7, 3)
	// Overflow the 100-packet buffer without servicing: guarantees at
	// least one drop event.
	for i := 0; i < 300; i++ {
		d.step(1e-4, []*netsim.Packet{mkpkt(1, 2, 1000, path)}, 0)
	}
	var sawDrop bool
	for _, e := range r.Telemetry().Trace.Events() {
		if e.Type != telemetry.EventPacketDropped {
			continue
		}
		sawDrop = true
		if _, ok := ParseDropReason(e.Reason); !ok {
			t.Fatalf("drop event reason %q does not parse", e.Reason)
		}
	}
	if !sawDrop {
		t.Fatal("expected at least one PacketDropped event")
	}
}

func TestTelemetryCountersMatchRouter(t *testing.T) {
	needTelemetry(t)
	r := newTestRouter(t, nil)
	tel := telemetry.New(telemetry.Options{TraceCapacity: 1 << 16, Recorder: true})
	r.SetTelemetry(tel)
	d := &driver{r: r}
	pathA := pathid.New(7, 3)
	pathB := pathid.New(9, 4)
	for i := 0; i < 3000; i++ {
		d.step(5e-4, []*netsim.Packet{
			mkpkt(1, 2, 1000, pathA),
			mkpkt(3, 4, 1000, pathB),
		}, 1)
	}
	reg := tel.Registry
	if got, want := reg.CounterValue("floc_router_arrived_packets_total"), r.Snapshot().Arrived; got != want {
		t.Fatalf("arrived counter = %d, router = %d", got, want)
	}
	if got, want := reg.CounterValue("floc_router_admitted_packets_total"), r.Admitted(); got != want {
		t.Fatalf("admitted counter = %d, router = %d", got, want)
	}
	var dropSum int64
	for reason := DropReason(0); reason < numDropReasons; reason++ {
		c := reg.CounterValue(`floc_router_drops_total{reason="` + reason.String() + `"}`)
		if c != r.Drops(reason) {
			t.Fatalf("drop counter %q = %d, router = %d", reason.String(), c, r.Drops(reason))
		}
		dropSum += c
	}
	if dropSum != r.TotalDrops() {
		t.Fatalf("drop counters sum %d, router total %d", dropSum, r.TotalDrops())
	}

	// The router's per-path counts add up to its totals (no path expires
	// in this trace; TestReplayExpiryResetsPathState covers expiry).
	var admitted, dropped int64
	for _, p := range r.PathInfos() {
		admitted += p.AdmittedPackets
		dropped += p.DroppedPackets
	}
	if admitted != r.Admitted() || dropped != r.TotalDrops() {
		t.Fatalf("per-path sums (%d,%d) != router totals (%d,%d)",
			admitted, dropped, r.Admitted(), r.TotalDrops())
	}

	if reg.CounterValue("floc_router_control_runs_total") != int64(r.ControlRuns()) {
		t.Fatal("control-run counter out of sync")
	}
	if len(tel.Recorder.Samples()) == 0 {
		t.Fatal("recorder got no control-run samples")
	}
}

// TestRegistryBoundedUnderPathChurn: the series a router registers are
// fixed by its configuration, not by the paths its senders invent. One
// path stays live while four waves of 1 000 fresh paths arrive and expire;
// after every wave the registry holds exactly the series it held before
// the first.
func TestRegistryBoundedUnderPathChurn(t *testing.T) {
	needTelemetry(t)
	r := newTestRouter(t, nil)
	tel := telemetry.New(telemetry.Options{Recorder: true})
	r.SetTelemetry(tel)
	d := &driver{r: r}
	live := pathid.New(7, 3)
	idle := func(seconds float64) {
		for i := 0; i < int(seconds/0.01); i++ {
			d.step(0.01, []*netsim.Packet{mkpkt(1, 2, 1000, live)}, 2)
		}
	}
	idle(1)
	want := tel.Registry.Names()
	for wave := 0; wave < 4; wave++ {
		for i := 0; i < 1000; i++ {
			fresh := pathid.New(pathid.ASN(100+wave*1000+i), 5)
			d.step(0.001, []*netsim.Packet{
				mkpkt(1, 2, 1000, live),
				mkpkt(uint32(10+i), 2, 1000, fresh),
			}, 2)
		}
		if n := len(r.PathInfos()); n != 1001 {
			t.Fatalf("wave %d: %d paths live after the wave, want 1001", wave, n)
		}
		idle(r.cfg.FlowTimeout + 1)
		if n := len(r.PathInfos()); n != 1 {
			t.Fatalf("wave %d: %d paths live after the timeout, want 1", wave, n)
		}
		if got := tel.Registry.Names(); !slices.Equal(got, want) {
			t.Fatalf("wave %d: registry holds %d series, held %d before the first wave",
				wave, len(got), len(want))
		}
	}
}

func TestModeChangedEvents(t *testing.T) {
	needTelemetry(t)
	r := newTestRouter(t, nil)
	tel := telemetry.New(telemetry.Options{TraceCapacity: 1 << 16})
	r.SetTelemetry(tel)
	d := &driver{r: r}
	path := pathid.New(7, 3)
	// Fill without service to force uncongested -> congested -> flooding,
	// then drain back down.
	for i := 0; i < 200; i++ {
		d.step(1e-4, []*netsim.Packet{mkpkt(1, 2, 1000, path)}, 0)
	}
	for i := 0; i < 200; i++ {
		d.step(1e-3, nil, 2)
	}
	// Replay: mode starts uncongested; every transition is an event; the
	// final event state must match the router.
	mode := ModeUncongested.String()
	transitions := 0
	for _, e := range tel.Trace.Events() {
		if e.Type == telemetry.EventModeChanged {
			if e.Mode == mode {
				t.Fatalf("ModeChanged event to the same mode %q", mode)
			}
			mode = e.Mode
			transitions++
		}
	}
	if transitions < 2 {
		t.Fatalf("expected >= 2 mode transitions, got %d", transitions)
	}
	if mode != r.Mode().String() {
		t.Fatalf("replayed mode %q, router mode %q", mode, r.Mode())
	}
}

func TestQueueDelayObserved(t *testing.T) {
	needTelemetry(t)
	r := newTestRouter(t, nil)
	tel := telemetry.New(telemetry.Options{})
	r.SetTelemetry(tel)
	d := &driver{r: r}
	path := pathid.New(7, 3)
	for i := 0; i < 50; i++ {
		d.step(1e-3, []*netsim.Packet{mkpkt(1, 2, 1000, path)}, 1)
	}
	// Histogram() is get-or-create, so this fetches the live histogram.
	h := tel.Registry.Histogram("floc_router_queue_delay_seconds", "", "", nil)
	if h.Count() == 0 {
		t.Fatal("queue delay histogram recorded no observations")
	}
	if h.Sum() < 0 {
		t.Fatalf("negative total delay %v", h.Sum())
	}
}

func TestSetTelemetryMidRunSkipsUnknownDelays(t *testing.T) {
	r := newTestRouter(t, nil)
	d := &driver{r: r}
	path := pathid.New(7, 3)
	// Queue 10 packets with telemetry off.
	d.step(1e-3, []*netsim.Packet{
		mkpkt(1, 2, 1000, path), mkpkt(1, 2, 1000, path), mkpkt(1, 2, 1000, path),
	}, 0)
	tel := telemetry.New(telemetry.Options{})
	r.SetTelemetry(tel)
	// Draining pre-attach packets must not panic or record bogus delays.
	for i := 0; i < 5; i++ {
		d.step(1e-3, nil, 1)
	}
	// One packet through after attach gives exactly one real observation.
	d.step(1e-3, []*netsim.Packet{mkpkt(1, 2, 1000, path)}, 0)
	d.step(1e-3, nil, 1)
	// Detach is clean too.
	r.SetTelemetry(nil)
	if r.Telemetry() != nil {
		t.Fatal("detach failed")
	}
	d.step(1e-3, []*netsim.Packet{mkpkt(1, 2, 1000, path)}, 1)
}

func TestTimeQueue(t *testing.T) {
	var q timeQueue
	if !math.IsNaN(q.pop()) {
		t.Fatal("empty pop must return NaN")
	}
	for i := 0; i < 200; i++ {
		q.push(float64(i))
	}
	for i := 0; i < 200; i++ {
		if got := q.pop(); got != float64(i) {
			t.Fatalf("pop %d = %v", i, got)
		}
	}
	if !math.IsNaN(q.pop()) {
		t.Fatal("exhausted pop must return NaN")
	}
}

// TestFlowPopulationMetrics: the live/attack flow gauges and the expired
// flow counter are what the control pass saw — they agree with PathInfos
// after every control run, through growth, a flood and a mass expiry.
func TestFlowPopulationMetrics(t *testing.T) {
	needTelemetry(t)
	r := newTestRouter(t, nil)
	tel := telemetry.New(telemetry.Options{})
	r.SetTelemetry(tel)
	d := &driver{r: r}
	calm, hot := pathid.New(11, 1), pathid.New(31, 20, 3)
	created, maxLive, maxAttack := 0, 0.0, 0.0
	for step := 0; step < 5000; step++ { // 10 s: the timeout is 5 s
		var pkts []*netsim.Packet
		if step < 1500 && step%10 == 0 {
			// 40 gentle flows on the calm path; they stop at 3 s and expire.
			for f := 0; f < 40; f++ {
				pkts = append(pkts, mkpkt(uint32(100+f), 2, 1000, calm))
			}
			created = 40
		}
		if step%25 == 0 {
			pkts = append(pkts, mkpkt(90, 2, 1000, calm))
		}
		for k := 0; k < 3; k++ { // one flooding flow
			pkts = append(pkts, mkpkt(200, 2, 1000, hot))
		}
		runs := r.ControlRuns()
		d.step(0.002, pkts, 2)
		if r.ControlRuns() == runs {
			continue
		}
		live, attack := 0, 0
		for _, info := range r.PathInfos() {
			live += info.Flows
			attack += info.AttackFlows
		}
		gotLive := tel.Registry.GaugeValue("floc_router_live_flows")
		gotAttack := tel.Registry.GaugeValue("floc_router_attack_flows")
		if gotLive != float64(live) || gotAttack != float64(attack) {
			t.Fatalf("step %d: gauges live=%v attack=%v, PathInfos sums %d and %d", step, gotLive, gotAttack, live, attack)
		}
		maxLive, maxAttack = math.Max(maxLive, gotLive), math.Max(maxAttack, gotAttack)
	}
	if maxLive < float64(created) || maxAttack < 1 {
		t.Fatalf("peak live flows %v, peak attack flows %v: the trace did not populate and flood", maxLive, maxAttack)
	}
	if got := tel.Registry.CounterValue("floc_router_expired_flows_total"); got != int64(created) {
		t.Fatalf("floc_router_expired_flows_total = %d, want the %d flows that stopped", got, created)
	}
}
