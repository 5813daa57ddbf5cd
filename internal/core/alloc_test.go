package core

import (
	"testing"

	"floc/internal/netsim"
	"floc/internal/pathid"
	"floc/internal/telemetry"
)

// TestZeroAllocEnqueueBatch gates the router's steady-state admission
// path: once a path and its flow exist, running packets through
// EnqueueBatch (and draining the output queue) must not allocate, as the
// compiler's escape analysis actually decides it.
func TestZeroAllocEnqueueBatch(t *testing.T) {
	r, err := NewRouter(DefaultConfig(1e9, 1024))
	if err != nil {
		t.Fatal(err)
	}
	path := pathid.New(7, 3, 1)
	key := path.Key()
	const now = 1.0

	items := make([]BatchItem, 8)
	pkts := make([]netsim.Packet, len(items))
	for i := range items {
		pkts[i] = netsim.Packet{
			ID: uint64(i), Src: 1, Dst: 2, Size: 1000,
			Kind: netsim.KindUDP, Path: path, PathKey: key,
		}
		items[i] = BatchItem{Pkt: &pkts[i], At: now}
	}

	// Warm up: first control run, path-state and flow-state creation, and
	// FIFO buffer growth all happen here, off the measured region.
	for i := 0; i < 64; i++ {
		r.EnqueueBatch(items)
		for r.Dequeue(now) != nil {
		}
	}

	if avg := testing.AllocsPerRun(100, func() {
		r.EnqueueBatch(items)
		for r.Dequeue(now) != nil {
		}
	}); avg != 0 {
		t.Fatalf("EnqueueBatch steady state allocates %.1f times per op, want 0", avg)
	}
}

// TestZeroAllocEnqueueHandles gates the dense-handle admission path: with
// PathHandle stamped and enough distinct paths to defeat the last-key
// memo, steady state must resolve origins through the open-addressed
// path table and flows through the open-addressed flow table without a
// single allocation.
func TestZeroAllocEnqueueHandles(t *testing.T) {
	r, err := NewRouter(DefaultConfig(1e9, 1024))
	if err != nil {
		t.Fatal(err)
	}
	const nPaths = 16
	items := make([]BatchItem, nPaths)
	pkts := make([]netsim.Packet, nPaths)
	const now = 1.0
	for i := range items {
		path := pathid.New(pathid.ASN(100+i), 3, 1)
		pkts[i] = netsim.Packet{
			ID: uint64(i), Src: uint32(i), Dst: 2, Size: 1000,
			Kind: netsim.KindUDP, Path: path, PathKey: path.Key(),
			PathHandle: r.InternPath(path),
		}
		items[i] = BatchItem{Pkt: &pkts[i], At: now}
	}
	for i := 0; i < 64; i++ {
		r.EnqueueBatch(items)
		for r.Dequeue(now) != nil {
		}
	}
	if avg := testing.AllocsPerRun(100, func() {
		r.EnqueueBatch(items)
		for r.Dequeue(now) != nil {
		}
	}); avg != 0 {
		t.Fatalf("handle-stamped steady state allocates %.1f times per op, want 0", avg)
	}
}

// TestZeroAllocCapabilitySlots gates the capability-mode accounting path:
// once a flow's slot is cached, acctKey must cost exactly one FlowHash —
// the slot table returns the cached slot and pre-salted hash with no
// allocation and no second hash.
func TestZeroAllocCapabilitySlots(t *testing.T) {
	cfg := DefaultConfig(1e9, 1024)
	cfg.NMax = 4
	r, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := pathid.New(7, 3, 1)
	key := path.Key()
	handle := r.InternPath(path)
	const now = 1.0
	items := make([]BatchItem, 8)
	pkts := make([]netsim.Packet, len(items))
	for i := range items {
		pkts[i] = netsim.Packet{
			ID: uint64(i), Src: uint32(i % 4), Dst: uint32(1000 + i), Size: 1000,
			Kind: netsim.KindUDP, Path: path, PathKey: key, PathHandle: handle,
		}
		items[i] = BatchItem{Pkt: &pkts[i], At: now}
	}
	// Warm up: capability issue and slot-cache fill happen here.
	for i := 0; i < 64; i++ {
		r.EnqueueBatch(items)
		for r.Dequeue(now) != nil {
		}
	}
	if avg := testing.AllocsPerRun(100, func() {
		r.EnqueueBatch(items)
		for r.Dequeue(now) != nil {
		}
	}); avg != 0 {
		t.Fatalf("capability-mode steady state allocates %.1f times per op, want 0", avg)
	}
}

// controlFixture is a router holding nPaths x flowsPer flows, each on a
// handle-stamped packet of its own, with telemetry attached the way flocd
// attaches it (registry plus trace ring, no recorder).
type controlFixture struct {
	r    *Router
	pkts []netsim.Packet // pkts[p*flowsPer+f]
	now  float64
}

func newControlFixture(tb testing.TB, nPaths, flowsPer int, mut func(*Config)) *controlFixture {
	tb.Helper()
	cfg := DefaultConfig(1e9, 1024)
	if mut != nil {
		mut(&cfg)
	}
	r, err := NewRouter(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	r.SetTelemetry(telemetry.New(telemetry.Options{TraceCapacity: 1 << 16}))
	fx := &controlFixture{r: r, pkts: make([]netsim.Packet, nPaths*flowsPer), now: 1}
	for p := 0; p < nPaths; p++ {
		path := pathid.New(pathid.ASN(1000+p), pathid.ASN(p%16+1), 1)
		key, handle := path.Key(), r.InternPath(path)
		for f := 0; f < flowsPer; f++ {
			fx.pkts[p*flowsPer+f] = netsim.Packet{
				Src: uint32(p), Dst: uint32(f), Size: 1000, Kind: netsim.KindUDP,
				Path: path, PathKey: key, PathHandle: handle,
			}
		}
	}
	for i := range fx.pkts {
		fx.send(i)
	}
	return fx
}

// send offers packet i at the fixture's clock and drains the queue, so
// the router never holds a pointer into pkts across calls.
func (fx *controlFixture) send(i int) {
	fx.r.Enqueue(&fx.pkts[i], fx.now)
	for fx.r.Dequeue(fx.now) != nil {
	}
}

// TestZeroAllocControlRunSteadyState gates the control loop's allocation
// behaviour. With no path churn a control run allocates nothing, at 64
// paths as at 4096 — nothing per flow, nothing per path, no rebuilt table
// or re-sorted path list — and re-creating expired flows after warm-up
// allocates nothing either, because an expired flow's slab slot is reused.
func TestZeroAllocControlRunSteadyState(t *testing.T) {
	needTelemetry(t)
	const flowsPer = 16
	perRun := func(nPaths int) float64 {
		fx := newControlFixture(t, nPaths, flowsPer, func(c *Config) { c.FlowTimeout = 1e9 })
		step := func() {
			fx.now += fx.r.cfg.ControlInterval
			fx.r.runControl(fx.now)
		}
		for i := 0; i < 4; i++ {
			step() // warm-up: the path order is built, scratch slices sized
		}
		return testing.AllocsPerRun(10, step)
	}
	if small, large := perRun(64), perRun(4096); small != 0 || large != 0 {
		t.Fatalf("control run allocates %.1f objects at 64x%d flows and %.1f at 4096x%d, want 0",
			small, flowsPer, large, flowsPer)
	}

	// Flow churn: a cycle is three control intervals. The first flow of
	// every path sits out the first two, expires at the second boundary
	// (it has idled two intervals against a timeout of 1.5) and returns in
	// the third; every other flow sends in every interval.
	const nPaths = 64
	fx := newControlFixture(t, nPaths, flowsPer, func(c *Config) { c.FlowTimeout = 1.5 * c.ControlInterval })
	cycle := func() {
		for tick := 0; tick < 3; tick++ {
			fx.now += fx.r.cfg.ControlInterval
			for i := range fx.pkts {
				if tick == 2 || i%flowsPer != 0 {
					fx.send(i)
				}
			}
		}
	}
	for i := 0; i < 4; i++ {
		cycle()
	}
	expired := fx.r.tel.Registry.CounterValue("floc_router_expired_flows_total")
	const cycles = 10
	churn := testing.AllocsPerRun(cycles, cycle)
	expired = fx.r.tel.Registry.CounterValue("floc_router_expired_flows_total") - expired
	if want := int64(nPaths * (cycles + 1)); expired != want { // AllocsPerRun warms up once
		t.Fatalf("%d flows expired over the measured cycles, want %d: the cycle does not churn", expired, want)
	}
	if churn != 0 {
		t.Fatalf("a cycle of three control runs that expires and re-creates %d flows allocates %.1f objects, want 0", nPaths, churn)
	}
}

// TestZeroAllocPrefetch gates the read-ahead pass: its scratch stays on
// the stack, for a batch of one window as for one of several, and in
// capability mode, where it looks slots up and must never issue one.
func TestZeroAllocPrefetch(t *testing.T) {
	for _, nmax := range []int{0, 4} {
		fx := newControlFixture(t, 64, 16, func(c *Config) { c.NMax = nmax })
		items := make([]BatchItem, 0, 200)
		for i := 0; len(items) < cap(items); i += 5 {
			items = append(items, BatchItem{Pkt: &fx.pkts[i], At: fx.now})
		}
		var warm uint64
		for _, batch := range [][]BatchItem{items[:prefetchWindow], items} {
			if avg := testing.AllocsPerRun(100, func() { warm ^= fx.r.Prefetch(batch) }); avg != 0 {
				t.Fatalf("NMax %d: Prefetch of %d items allocates %.1f times per call, want 0", nmax, len(batch), avg)
			}
		}
	}
}
