package core

import (
	"fmt"
	"strings"
	"testing"

	"floc/internal/netsim"
	"floc/internal/pathid"
	"floc/internal/telemetry"
)

// observable renders everything an outsider can read off a router — the
// snapshot, the drop filter's operation counts, the capability slots
// issued, the registry text — so that two renderings can be compared
// byte for byte.
func observable(t *testing.T, r *Router) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "%+v\n", r.Snapshot())
	records, queries := r.filter.Counters()
	fmt.Fprintf(&b, "filter ops %d %d, slots %d\n", records, queries, r.slots.n)
	if r.tel != nil {
		if err := r.tel.Registry.WriteText(&b); err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
}

// TestPrefetchIsInvisible: the traces of TestControlLoopGolden, driven
// with the router reading ahead over every step's batch, fold to the
// digests TestControlLoopGolden pins without Prefetch. The
// scenarios between them reach aggregated members (smax, legit, churn),
// capability mode with flows not seen before (capability) and paths and
// flows that expire and return (churn).
func TestPrefetchIsInvisible(t *testing.T) {
	needTelemetry(t)
	for _, sc := range goldenScenarios {
		t.Run(sc.name, func(t *testing.T) {
			if got, _ := runGolden(t, sc, true); got != sc.digest {
				t.Fatalf("digest %s with Prefetch, %s recorded without", got, sc.digest)
			}
		})
	}
}

// prefetchCase is one situation Prefetch has to read through. drive loads
// the router as it likes and hands admit the batches under test.
type prefetchCase struct {
	name  string
	mut   func(*Config)
	drive func(t *testing.T, r *Router, admit func([]BatchItem))
}

// stamped returns a packet carrying the handle r issues for its path.
func stamped(r *Router, src, dst uint32, path pathid.PathID) *netsim.Packet {
	pkt := mkpkt(src, dst, 1000, path)
	pkt.PathHandle = r.InternPath(path)
	return pkt
}

// batchAt is a batch of pkts all arriving at now.
func batchAt(now float64, pkts ...*netsim.Packet) []BatchItem {
	items := make([]BatchItem, len(pkts))
	for i, pkt := range pkts {
		items[i] = BatchItem{Pkt: pkt, At: now}
	}
	return items
}

// flowsOn returns one stamped packet for each of n flows on path.
func flowsOn(r *Router, path pathid.PathID, firstSrc uint32, n int) []*netsim.Packet {
	pkts := make([]*netsim.Packet, n)
	for i := range pkts {
		pkts[i] = stamped(r, firstSrc+uint32(i), 2, path)
	}
	return pkts
}

// offer enqueues pkts at now, one after the other, and serves up to n.
func offer(r *Router, now float64, n int, pkts ...*netsim.Packet) {
	d := driver{r: r, now: now}
	d.step(0, pkts, n)
}

var prefetchCases = []prefetchCase{
	{
		name: "no batch",
		drive: func(t *testing.T, r *Router, admit func([]BatchItem)) {
			admit(nil)
			admit([]BatchItem{})
		},
	},
	{
		// Handles that resolve to nothing: none, another router's, one past
		// anything issued, one issued but never used — beside a known flow
		// and a new flow of a known path.
		name: "handles",
		drive: func(t *testing.T, r *Router, admit func([]BatchItem)) {
			known := pathid.New(11, 1)
			offer(r, 0.1, 1, flowsOn(r, known, 100, 3)...)
			foreign := mkpkt(1, 2, 1000, pathid.New(13, 1))
			foreign.PathHandle = newTestRouter(t, nil).InternPath(foreign.Path)
			wild := mkpkt(1, 2, 1000, pathid.New(14, 1))
			wild.PathHandle = r.HandleTag() | handleIndexMask
			admit(batchAt(0.2,
				mkpkt(1, 2, 1000, pathid.New(12, 1)),
				foreign,
				wild,
				stamped(r, 1, 2, pathid.New(15, 1)),
				stamped(r, 101, 2, known),
				stamped(r, 900, 2, known),
			))
		},
	},
	{
		// A path whose state has expired: its handle stays bound and now
		// resolves to nil.
		name: "expired path",
		mut:  func(c *Config) { c.FlowTimeout = 0.6 },
		drive: func(t *testing.T, r *Router, admit func([]BatchItem)) {
			gone, other := pathid.New(11, 1), pathid.New(12, 1)
			pkt := stamped(r, 1, 2, gone)
			offer(r, 0.1, 1, pkt)
			for _, now := range []float64{5, 6} { // flows expire, then the path
				offer(r, now, 1, stamped(r, 3, 4, other))
			}
			if r.origins.byHandle(pkt.PathHandle) != nil {
				t.Fatal("the path did not expire")
			}
			admit(batchAt(6.1, pkt, stamped(r, 3, 4, other)))
		},
	},
	{
		// Path states without a flow table: one whose flows have all
		// expired, one that never had a flow.
		name: "no flow table",
		mut:  func(c *Config) { c.FlowTimeout = 0.6 },
		drive: func(t *testing.T, r *Router, admit func([]BatchItem)) {
			emptied := flowsOn(r, pathid.New(12, 1), 100, 5)
			offer(r, 0.1, 5, emptied...)
			offer(r, 5, 1, stamped(r, 3, 4, pathid.New(13, 1)))
			if ps := r.origins.byHandle(emptied[0].PathHandle); ps == nil || ps.flows.len() != 0 || ps.flows.slots == nil {
				t.Fatal("the first path did not keep an emptied table")
			}
			bare := stamped(r, 1, 2, pathid.New(11, 1))
			if ps := r.origin(bare, 5.05); ps.flows.slots != nil {
				t.Fatal("a path state is born with a flow table")
			}
			admit(batchAt(5.1, bare, emptied[0], emptied[4]))
		},
	},
	{
		// Members of an attack aggregate: the bucket Enqueue will use is
		// the aggregate's, behind one more pointer.
		name: "aggregated members",
		mut:  func(c *Config) { c.SMax = 4 },
		drive: func(t *testing.T, r *Router, admit func([]BatchItem)) {
			var hogs []*netsim.Packet
			for i := 0; i < 6; i++ {
				hogs = append(hogs, stamped(r, uint32(2000+i), 2, pathid.New(pathid.ASN(31+i), 20, 3)))
			}
			calm := flowsOn(r, pathid.New(11, 1), 100, 2)
			now := 0.0
			for len(r.aggs) == 0 {
				if now += 0.002; now > 20 {
					t.Fatal("no aggregate formed")
				}
				for rep := 0; rep < 2; rep++ {
					offer(r, now, 1, hogs...)
				}
				offer(r, now, 0, calm...)
			}
			if r.origins.byHandle(hogs[0].PathHandle).aggregate == nil {
				t.Fatal("the first hog's path is not a member")
			}
			admit(batchAt(now+0.002, append(hogs, calm...)...))
		},
	},
	{
		// Capability mode: flows that hold no slot yet must not be issued
		// one by the read-ahead (observable counts the slots).
		name: "capability, unseen flows",
		mut:  func(c *Config) { c.NMax = 3 },
		drive: func(t *testing.T, r *Router, admit func([]BatchItem)) {
			path := pathid.New(7, 1)
			offer(r, 0.1, 2, stamped(r, 1, 50, path), stamped(r, 1, 51, path))
			var pkts []*netsim.Packet
			for dst := uint32(50); dst < 90; dst++ {
				pkts = append(pkts, stamped(r, 1+dst%2, dst, path))
			}
			admit(batchAt(0.2, pkts...))
		},
	},
	{
		// More items than one window stages, over a grown table, with
		// unresolvable ones mixed in.
		name: "oversize batch",
		drive: func(t *testing.T, r *Router, admit func([]BatchItem)) {
			pkts := flowsOn(r, pathid.New(11, 1), 100, 150)
			offer(r, 0.1, 10, pkts...)
			for i := 0; i < 50; i++ {
				pkts = append(pkts, mkpkt(uint32(i), 2, 1000, pathid.New(pathid.ASN(50+i%5), 1)))
			}
			if len(pkts) <= 3*prefetchWindow {
				t.Fatal("the batch does not span four windows")
			}
			admit(batchAt(0.2, pkts...))
		},
	},
	{
		// The batch is read ahead, and then its first packet's arrival time
		// starts a control run that expires every flow the read-ahead
		// found and shrinks their table from 512 slots to 8.
		name: "control run in mid-batch",
		mut:  func(c *Config) { c.FlowTimeout = 0.6 },
		drive: func(t *testing.T, r *Router, admit func([]BatchItem)) {
			pkts := flowsOn(r, pathid.New(11, 1), 100, 300)
			offer(r, 0.1, 10, pkts...)
			ps := r.origins.byHandle(pkts[0].PathHandle)
			if len(ps.flows.slots) != 512 {
				t.Fatalf("the table has %d slots before the run, want 512", len(ps.flows.slots))
			}
			admit(batchAt(5, pkts[:40]...))
			if got := r.tel.Registry.CounterValue("floc_router_expired_flows_total"); got != 300 {
				t.Fatalf("%d flows expired in mid-batch, want 300", got)
			}
			if len(ps.flows.slots) >= 512 {
				t.Fatalf("the table still has %d slots", len(ps.flows.slots))
			}
		},
	},
}

// TestPrefetchReadsThroughAnything: whatever a batch holds and whatever
// happens between reading ahead and admitting, Prefetch does not panic
// (the suite also runs under -tags flocinvariants and -race), changes
// nothing an outsider can read, and leaves the router where a twin that
// never read ahead ends up.
func TestPrefetchReadsThroughAnything(t *testing.T) {
	needTelemetry(t)
	for _, pc := range prefetchCases {
		t.Run(pc.name, func(t *testing.T) {
			var ends [2]string
			for i, prefetch := range []bool{false, true} {
				r := newTestRouter(t, pc.mut)
				r.SetTelemetry(&telemetry.Telemetry{Registry: telemetry.NewRegistry()})
				pc.drive(t, r, func(items []BatchItem) {
					if prefetch {
						before := observable(t, r)
						r.Prefetch(items)
						if after := observable(t, r); after != before {
							t.Fatalf("Prefetch alone changed the router:\n%s\nwas\n%s", after, before)
						}
					}
					for _, it := range items {
						r.Enqueue(it.Pkt, it.At)
					}
				})
				ends[i] = observable(t, r)
			}
			if ends[0] != ends[1] {
				t.Fatalf("with Prefetch the router ends at\n%s\nwithout at\n%s", ends[1], ends[0])
			}
		})
	}
}
