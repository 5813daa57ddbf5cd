package dataplane

import (
	"testing"

	"floc/internal/core"
	"floc/internal/netsim"
	"floc/internal/pathid"
	"floc/internal/telemetry"
)

// The ring is crossed once per packet in each direction; its push and
// batched pop carry the //floc:hotpath zero-allocation contract, and so
// does the way around it: a producer's inline run under the consumer role.

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

// TestZeroAllocQuiesce: a batch handed to a Burst and quiesced behind
// parked workers — role taken, ring drained, run admitted, transmitter
// served, sink flushed, role released — allocates nothing.
func TestZeroAllocQuiesce(t *testing.T) {
	cfg := limitTestConfig(2)
	cfg.Egress = &bufferingSink{}
	cfg.Telemetry = telemetry.NewRegistry()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const perRun = 16
	pkts := make([]*netsim.Packet, perRun)
	for i := range pkts {
		path := pathid.New(pathid.ASN(50+i%4), 5, 1)
		pkts[i] = limitPkt(path, e.InternPath(path), 1000)
	}
	b := e.NewBurst()
	parkWorkers(e)
	now, runs := 0.0, 0
	if avg := testing.AllocsPerRun(200, func() {
		for _, pkt := range pkts {
			now += 0.001
			b.Enqueue(pkt, now)
		}
		b.Quiesce()
		runs++
	}); avg != 0 {
		t.Fatalf("enqueue and quiesce of %d packets allocates %.1f times, want 0", perRun, avg)
	}
	if st := e.Stats(); st.Processed != int64(runs*perRun) {
		t.Fatalf("%d packets processed behind %d quiesces of %d", st.Processed, runs, perRun)
	}
	if got := shardCounters(e, "floc_dataplane_inline_runs_total"); got != int64(2*runs) {
		t.Fatalf("%d inline runs over %d quiesces of two shards: the gate did not measure the inline path", got, runs)
	}
}
