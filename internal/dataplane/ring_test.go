package dataplane

import (
	"sync"
	"testing"

	"floc/internal/core"
	"floc/internal/netsim"
)

func TestRingFIFOAndCapacity(t *testing.T) {
	r := newRing(4)
	pkts := make([]netsim.Packet, 5)
	for i := 0; i < 4; i++ {
		if !r.tryEnqueue(core.BatchItem{Pkt: &pkts[i], At: float64(i)}) {
			t.Fatalf("enqueue %d failed on non-full ring", i)
		}
	}
	if r.tryEnqueue(core.BatchItem{Pkt: &pkts[4]}) {
		t.Fatal("enqueue succeeded on a full ring")
	}
	buf := make([]core.BatchItem, 3)
	if n := r.dequeueBatch(buf); n != 3 {
		t.Fatalf("dequeued %d, want 3", n)
	}
	for i := 0; i < 3; i++ {
		if buf[i].Pkt != &pkts[i] || buf[i].At != float64(i) {
			t.Fatalf("slot %d out of order: %+v", i, buf[i])
		}
	}
	// Freed slots are reusable (wraparound).
	for i := 0; i < 3; i++ {
		if !r.tryEnqueue(core.BatchItem{Pkt: &pkts[i]}) {
			t.Fatalf("re-enqueue %d failed after frees", i)
		}
	}
	if n := r.dequeueBatch(make([]core.BatchItem, 8)); n != 4 {
		t.Fatalf("final drain got %d, want 4", n)
	}
	if !r.empty() {
		t.Fatal("ring not empty after full drain")
	}
}

func TestRingConcurrentProducers(t *testing.T) {
	const (
		producers = 4
		perProd   = 10000
	)
	r := newRing(256)
	pkts := make([]netsim.Packet, producers*perProd)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				it := core.BatchItem{Pkt: &pkts[p*perProd+i], At: float64(i)}
				for !r.tryEnqueue(it) {
				}
			}
		}(p)
	}
	seen := make(map[*netsim.Packet]bool, len(pkts))
	buf := make([]core.BatchItem, 64)
	for len(seen) < len(pkts) {
		n := r.dequeueBatch(buf)
		for i := 0; i < n; i++ {
			if seen[buf[i].Pkt] {
				t.Fatalf("item delivered twice: %p", buf[i].Pkt)
			}
			seen[buf[i].Pkt] = true
		}
	}
	wg.Wait()
	if !r.empty() {
		t.Fatal("ring not empty after consuming every item")
	}
}
