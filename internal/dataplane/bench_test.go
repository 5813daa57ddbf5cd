package dataplane

import (
	"fmt"
	"testing"

	"floc/internal/core"
	"floc/internal/netsim"
	"floc/internal/pathid"
)

// BenchmarkDataplaneEnqueueSharded measures aggregate enqueue-to-admission
// throughput at 1/2/4/8 shards, driving the engine as flocd's replay
// does: the one producer hands CBR packets to the engine's Burst, which
// publishes them a run at a time, and quiesces at the end, while the
// shard workers run admission. With BlockOnFull the producer is paced by
// the workers, so ns/op tracks the whole pipeline, not just the hand-off;
// on a multi-core runner the per-shard routers run concurrently and ns/op
// drops with the shard count, until the one producer is the bottleneck.
func BenchmarkDataplaneEnqueueSharded(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			rc := core.DefaultConfig(8e9, 1024) // 1M pkt/s: transmitter never the bottleneck
			rc.Seed = 1
			e, err := New(Config{Router: rc, Shards: shards, RingSize: 4096, BlockOnFull: true})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()

			// 64 distinct paths so every shard count gets work on all
			// shards; the producer reuses one packet, which Enqueue copies.
			paths := make([]pathid.PathID, 64)
			keys := make([]string, 64)
			handles := make([]uint32, 64)
			for i := range paths {
				paths[i] = pathid.New(pathid.ASN(1000+i), pathid.ASN(i%8), 1)
				keys[i] = paths[i].Key()
				// Pre-intern like the wire pipeline does: steady-state
				// admission is handle-indexed.
				handles[i] = e.InternPath(paths[i])
			}
			burst := e.NewBurst()
			var pkt netsim.Packet
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pi := (i * 7) % len(paths)
				pkt = netsim.Packet{
					ID: uint64(i), Src: 1, Dst: 1, Size: 1000,
					Kind: netsim.KindUDP, Path: paths[pi], PathKey: keys[pi],
					PathHandle: handles[pi],
				}
				burst.Enqueue(&pkt, 1.0)
			}
			burst.Quiesce()
			e.Drain()
			b.StopTimer()
		})
	}
}
