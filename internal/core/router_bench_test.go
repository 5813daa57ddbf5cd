package core

import (
	"fmt"
	"testing"

	"floc/internal/netsim"
	"floc/internal/pathid"
	"floc/internal/telemetry"
)

// benchEnqueue drives one path's steady stream through r at 125k
// packets/s. The router is driven through the Discipline interface
// exactly as a Link invokes it, so the numbers reflect the simulator's
// real call pattern (and build tags cannot skew the comparison via
// call-site inlining).
func benchEnqueue(b *testing.B, r *Router) {
	var q netsim.Discipline = r
	path := pathid.New(7, 3, 1)
	pkt := &netsim.Packet{Src: 1, Dst: 2, Size: 1000, Kind: netsim.KindUDP, Path: path, PathKey: path.Key()}
	pkt.PathHandle = r.InternPath(path) // producers stamp handles, as the wire pipeline does
	now := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 8e-6
		q.Enqueue(pkt, now)
		q.Dequeue(now)
	}
}

// BenchmarkFLocRouterEnqueue measures the router's per-packet cost on a
// steady stream (the data-plane hot path) with no telemetry attached.
// check.sh's perf-gate runs it paired against the parent commit.
func BenchmarkFLocRouterEnqueue(b *testing.B) {
	r, err := NewRouter(DefaultConfig(1e9, 1000))
	if err != nil {
		b.Fatal(err)
	}
	benchEnqueue(b, r)
}

// BenchmarkFLocRouterEnqueueBatch measures the handle-stamped batched
// admission path at the dataplane's batch sizes. Items rotate over enough
// distinct paths to defeat the router's last-key memo, so the numbers
// reflect the open-addressed table probes rather than the memo hit.
func BenchmarkFLocRouterEnqueueBatch(b *testing.B) {
	for _, size := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("batch%d", size), func(b *testing.B) {
			r, err := NewRouter(DefaultConfig(1e9, 1000))
			if err != nil {
				b.Fatal(err)
			}
			const nPaths = 8
			paths := make([]pathid.PathID, nPaths)
			keys := make([]string, nPaths)
			handles := make([]uint32, nPaths)
			for i := range paths {
				paths[i] = pathid.New(pathid.ASN(100+i), 3, 1)
				keys[i] = paths[i].Key()
				handles[i] = r.InternPath(paths[i])
			}
			pkts := make([]netsim.Packet, size)
			items := make([]BatchItem, size)
			now := 0.0
			b.ResetTimer()
			for i := 0; i < b.N; i += size {
				for j := range items {
					now += 8e-6
					pi := (i + j) % nPaths
					pkts[j] = netsim.Packet{
						ID: uint64(i + j), Src: uint32(j), Dst: 2, Size: 1000,
						Kind: netsim.KindUDP, Path: paths[pi], PathKey: keys[pi],
						PathHandle: handles[pi],
					}
					items[j] = BatchItem{Pkt: &pkts[j], At: now}
				}
				r.EnqueueBatch(items)
				for j := 0; j < size; j++ {
					r.Dequeue(now)
				}
			}
		})
	}
}

// BenchmarkFLocRouterEnqueueTelemetry is the same hot path with what
// flocd attaches: a registry (counter and histogram cells, per-path
// counters) and no event ring, showing the enabled-path cost a daemon
// pays. The detached-path cost is BenchmarkFLocRouterEnqueue.
func BenchmarkFLocRouterEnqueueTelemetry(b *testing.B) {
	r, err := NewRouter(DefaultConfig(1e9, 1000))
	if err != nil {
		b.Fatal(err)
	}
	r.SetTelemetry(&telemetry.Telemetry{Registry: telemetry.NewRegistry()})
	benchEnqueue(b, r)
}
