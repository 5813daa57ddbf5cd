package dataplane

import (
	"testing"

	"floc/internal/core"
	"floc/internal/netsim"
)

// The ring is crossed once per packet in each direction; its push and
// batched pop carry the //floc:hotpath zero-allocation contract.

func TestZeroAllocRingOps(t *testing.T) {
	r := newRing(64)
	var pkt netsim.Packet
	dst := make([]core.BatchItem, 16)
	if avg := testing.AllocsPerRun(200, func() {
		for i := 0; i < 16; i++ {
			if !r.tryEnqueue(core.BatchItem{Pkt: &pkt, At: 1.0}) {
				t.Fatal("ring unexpectedly full")
			}
		}
		if n := r.dequeueBatch(dst); n != 16 {
			t.Fatalf("dequeued %d of 16", n)
		}
		// The same 16 handed over as one burst.
		if n := r.tryEnqueueBurst(dst); n != 16 {
			t.Fatalf("burst claimed %d of 16", n)
		}
		if n := r.dequeueBatch(dst); n != 16 {
			t.Fatalf("dequeued %d of 16", n)
		}
	}); avg != 0 {
		t.Fatalf("ring push/pop allocates %.1f times per 16-packet cycle, want 0", avg)
	}
}
