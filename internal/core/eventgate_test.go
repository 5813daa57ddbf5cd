package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"floc/internal/netsim"
	"floc/internal/pathid"
	"floc/internal/telemetry"
)

// recordingSink keeps every event it is handed, in order.
type recordingSink struct{ events []telemetry.Event }

func (s *recordingSink) Emit(e telemetry.Event) { s.events = append(s.events, e) }

// gateRun drives 10 000 packets of four flows on three paths at four
// times the test router's link rate: congested within 50 steps, flooding
// soon after, with admissions and drops of several reasons interleaved.
func gateRun(r *Router) {
	d := &driver{r: r}
	calm, busy, hot := pathid.New(11, 1), pathid.New(21, 5, 2), pathid.New(31, 20, 3)
	for step := 0; step < 2500; step++ {
		d.step(1e-3, []*netsim.Packet{
			mkpkt(1, 2, 1000, calm),
			mkpkt(3, 4, 1000, busy),
			mkpkt(200, 2, 1000, hot),
			mkpkt(201, 2, 1500, hot),
		}, 1)
	}
}

func eventDigest(events []telemetry.Event) string {
	h := sha256.New()
	for _, e := range events {
		fmt.Fprintf(h, "%d %x %s %d %s\n", e.Type, e.Time, e.Path, e.Flow, e.Reason)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// gateRunDigest is eventDigest over gateRun's journal, recorded at
// b6f999c, where observeAdmit and observeDrop built an event for every
// packet whether or not anything consumed it.
const (
	gateRunDigest = "3f93d5ce2bffe5a1b0c1fe590674e3b3b2559fd57521cd55ec9dcb13435ecace"
	gateRunEvents = 10015
)

// TestEventGatingInvisibleToConsumers: a ring and a sink each see the
// journal the parent commit wrote — one PacketAdmitted or PacketDropped
// per offered packet, same fields, same order.
func TestEventGatingInvisibleToConsumers(t *testing.T) {
	consumers := map[string]func() (*telemetry.Telemetry, func() []telemetry.Event){
		"sink": func() (*telemetry.Telemetry, func() []telemetry.Event) {
			s := &recordingSink{}
			return &telemetry.Telemetry{Registry: telemetry.NewRegistry(), Sink: s},
				func() []telemetry.Event { return s.events }
		},
		"ring": func() (*telemetry.Telemetry, func() []telemetry.Event) {
			tel := telemetry.New(telemetry.Options{TraceCapacity: 1 << 15})
			return tel, tel.Trace.Events
		},
	}
	for name, mk := range consumers {
		t.Run(name, func(t *testing.T) {
			r := newTestRouter(t, nil)
			tel, events := mk()
			r.SetTelemetry(tel)
			gateRun(r)
			got := events()
			var perPacket int64
			for _, e := range got {
				if e.Type == telemetry.EventPacketAdmitted || e.Type == telemetry.EventPacketDropped {
					perPacket++
				}
			}
			if perPacket != r.Snapshot().Arrived {
				t.Fatalf("%d admit/drop events for %d offered packets", perPacket, r.Snapshot().Arrived)
			}
			if d := eventDigest(got); len(got) != gateRunEvents || d != gateRunDigest {
				t.Fatalf("%d events, digest %s; want %d, %s (recorded at the parent commit)",
					len(got), d, gateRunEvents, gateRunDigest)
			}
		})
	}
}

// TestRegistryOnlyTelemetryCountsWithoutEvents: with a registry and no
// ring or sink — what flocd attaches — nothing is journalled, a packet
// allocates nothing, and every router counter still matches Snapshot.
func TestRegistryOnlyTelemetryCountsWithoutEvents(t *testing.T) {
	r := newTestRouter(t, nil)
	reg := telemetry.NewRegistry()
	r.SetTelemetry(&telemetry.Telemetry{Registry: reg})
	gateRun(r)

	d := &driver{r: r, now: 10}
	pkts := []*netsim.Packet{mkpkt(1, 2, 1000, pathid.New(11, 1)), mkpkt(200, 2, 1000, pathid.New(31, 20, 3))}
	for _, p := range pkts {
		p.PathKey = p.Path.Key()
	}
	// Within one control interval, so the measured region is admission
	// and service alone.
	if avg := testing.AllocsPerRun(100, func() { d.step(1e-4, pkts, 1) }); avg != 0 {
		t.Fatalf("registry-only telemetry allocates %.1f times per step, want 0", avg)
	}

	snap := r.Snapshot()
	if snap.Drops[DropNoToken.String()] == 0 || snap.Admitted == 0 {
		t.Fatalf("run did not congest: %+v", snap)
	}
	if got := reg.CounterValue("floc_router_arrived_packets_total"); got != snap.Arrived {
		t.Fatalf("arrived counter %d, snapshot %d", got, snap.Arrived)
	}
	if got := reg.CounterValue("floc_router_admitted_packets_total"); got != snap.Admitted {
		t.Fatalf("admitted counter %d, snapshot %d", got, snap.Admitted)
	}
	for reason, want := range snap.Drops {
		if got := reg.CounterValue(`floc_router_drops_total{reason="` + reason + `"}`); got != want {
			t.Fatalf("drops{%s} counter %d, snapshot %d", reason, got, want)
		}
	}
	h := reg.Histogram("floc_router_queue_delay_seconds", "", "", nil)
	if dequeued := snap.Admitted - int64(r.Len()); h.Count() != dequeued {
		t.Fatalf("queue delay count %d, packets dequeued %d", h.Count(), dequeued)
	}
}
