package dataplane

import (
	"fmt"
	"sync/atomic"
	"testing"

	"floc/internal/core"
	"floc/internal/netsim"
	"floc/internal/pathid"
)

// BenchmarkDataplaneEnqueueSharded measures aggregate enqueue-to-admission
// throughput at 1/2/4/8 shards: GOMAXPROCS producer goroutines push CBR
// packets through the rings while the shard workers run admission. With
// BlockOnFull the producers are paced by the workers, so ns/op tracks the
// whole pipeline, not just ring contention; on a multi-core runner the
// per-shard routers run concurrently and ns/op drops with the shard count.
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
			// shards; each producer reuses one packet, which Enqueue copies.
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
			var producer atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				var pkt netsim.Packet
				p := uint64(producer.Add(1))
				i := uint64(0)
				for pb.Next() {
					pi := (i*7 + p*13) % uint64(len(paths))
					pkt = netsim.Packet{
						ID: i, Src: uint32(p), Dst: 1, Size: 1000,
						Kind: netsim.KindUDP, Path: paths[pi], PathKey: keys[pi],
						PathHandle: handles[pi],
					}
					e.Enqueue(&pkt, 1.0)
					i++
				}
			})
			e.Drain()
			b.StopTimer()
		})
	}
}
