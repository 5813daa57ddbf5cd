package dataplane

import (
	"strconv"
	"strings"
	"sync"
	"testing"

	"floc/internal/core"
	"floc/internal/telemetry"
)

// TestShardedRegistryCountsExact: shard routers meter through cells only
// their own worker writes, and a reader sums the cells. So a scrape taken
// while packets flow never sees a counter go backwards, and once the
// rings are drained the registry agrees with the routers to the packet —
// with no flush between the last packet and the read.
func TestShardedRegistryCountsExact(t *testing.T) {
	rc := core.DefaultConfig(80e6, 256) // 10 000 packets/s; the mix offers 20 000
	rc.Seed = 42
	sc := genScenario(40, 0.002, 10) // 200 000 packets
	for _, shards := range []int{2, 3} {
		reg := telemetry.NewRegistry()
		e, err := New(Config{Router: rc, Shards: shards, BlockOnFull: true, Telemetry: reg})
		if err != nil {
			t.Fatal(err)
		}

		stop := make(chan struct{})
		var scraper sync.WaitGroup
		scraper.Add(1)
		go func() {
			defer scraper.Done()
			last := map[string]float64{}
			lastArrived := int64(0)
			for {
				select {
				case <-stop:
					return
				default:
				}
				var b strings.Builder
				if err := reg.WriteText(&b); err != nil {
					t.Error(err)
					return
				}
				for _, line := range strings.Split(b.String(), "\n") {
					cut := strings.LastIndexByte(line, ' ')
					if cut < 0 || line[0] == '#' {
						continue
					}
					name := line[:cut]
					if !strings.Contains(name, "_total") && !strings.Contains(name, "_bucket{") && !strings.HasSuffix(name, "_count") && !strings.Contains(name, "_count{") {
						continue // gauges and float sums
					}
					v, err := strconv.ParseFloat(line[cut+1:], 64)
					if err != nil {
						t.Errorf("unparseable sample %q", line)
						return
					}
					if v < last[name] {
						t.Errorf("%d shards: %s scraped %v after %v", shards, name, v, last[name])
						return
					}
					last[name] = v
				}
				n := reg.CounterValue("floc_router_arrived_packets_total")
				if n < lastArrived {
					t.Errorf("%d shards: arrived read %d after %d", shards, n, lastArrived)
					return
				}
				lastArrived = n
			}
		}()

		b := e.NewBurst()
		for i := range sc {
			pkt := sc[i].pkt
			b.Enqueue(&pkt, sc[i].at)
		}
		b.Flush()
		e.Drain()
		// Read straight after the drain: nothing has published anything.
		arrived := reg.CounterValue("floc_router_arrived_packets_total")
		admitted := reg.CounterValue("floc_router_admitted_packets_total")
		delays := reg.Histogram("floc_router_queue_delay_seconds", "", "", nil).Count()
		close(stop)
		scraper.Wait()
		snap, stats := e.Snapshot(), e.Stats()
		e.Close()

		if arrived != stats.Processed || arrived != int64(len(sc)) || arrived != snap.Arrived {
			t.Fatalf("%d shards: arrived counter %d, processed %d, offered %d, snapshot %d",
				shards, arrived, stats.Processed, len(sc), snap.Arrived)
		}
		if admitted != snap.Admitted || admitted == 0 || admitted == arrived {
			t.Fatalf("%d shards: admitted counter %d, snapshot %d of %d", shards, admitted, snap.Admitted, arrived)
		}
		var dropped int64
		for reason, want := range snap.Drops {
			got := reg.CounterValue(`floc_router_drops_total{reason="` + reason + `"}`)
			if got != want {
				t.Fatalf("%d shards: drops{%s} counter %d, snapshot %d", shards, reason, got, want)
			}
			dropped += got
		}
		if admitted+dropped != arrived {
			t.Fatalf("%d shards: admitted %d + dropped %d != arrived %d", shards, admitted, dropped, arrived)
		}
		if dequeued := snap.Admitted - int64(snap.QueueLen); delays != dequeued {
			t.Fatalf("%d shards: queue delay count %d, packets dequeued %d", shards, delays, dequeued)
		}
	}
}
