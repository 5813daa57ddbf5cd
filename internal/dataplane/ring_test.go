package dataplane

import (
	"runtime"
	"sync"
	"testing"

	"floc/internal/core"
	"floc/internal/netsim"
	"floc/internal/rng"
)

func TestRingFIFOAndCapacity(t *testing.T) {
	r := newRing(4)
	var slots packetSlots
	pkts := make([]netsim.Packet, 5)
	for i := range pkts {
		pkts[i].ID = uint64(i)
	}
	for i := 0; i < 4; i++ {
		if !r.tryEnqueue(&pkts[i], float64(i)) {
			t.Fatalf("enqueue %d failed on non-full ring", i)
		}
	}
	if r.tryEnqueue(&pkts[4], 0) {
		t.Fatal("enqueue succeeded on a full ring")
	}
	buf := make([]core.BatchItem, 3)
	if n := r.dequeueBatch(buf, &slots); n != 3 {
		t.Fatalf("dequeued %d, want 3", n)
	}
	for i := 0; i < 3; i++ {
		if buf[i].Pkt.ID != uint64(i) || buf[i].At != float64(i) {
			t.Fatalf("slot %d out of order: packet %d at %v", i, buf[i].Pkt.ID, buf[i].At)
		}
		if buf[i].Pkt == &pkts[i] {
			t.Fatalf("slot %d: the consumer got the producer's packet, not a copy", i)
		}
	}
	// Freed slots are reusable (wraparound).
	for i := 0; i < 3; i++ {
		if !r.tryEnqueue(&pkts[i], 0) {
			t.Fatalf("re-enqueue %d failed after frees", i)
		}
	}
	if n := r.dequeueBatch(make([]core.BatchItem, 8), &slots); n != 4 {
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
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			pkt := netsim.Packet{}
			for i := 0; i < perProd; i++ {
				pkt.ID = uint64(p*perProd + i)
				for !r.tryEnqueue(&pkt, float64(i)) {
				}
			}
		}(p)
	}
	var slots packetSlots
	seen := make(map[uint64]bool, producers*perProd)
	buf := make([]core.BatchItem, 64)
	for len(seen) < producers*perProd {
		n := r.dequeueBatch(buf, &slots)
		for i := 0; i < n; i++ {
			if seen[buf[i].Pkt.ID] {
				t.Fatalf("item delivered twice: packet %d", buf[i].Pkt.ID)
			}
			seen[buf[i].Pkt.ID] = true
			slots.release(buf[i].Pkt)
		}
	}
	wg.Wait()
	if !r.empty() {
		t.Fatal("ring not empty after consuming every item")
	}
}

// TestRingBurstAgainstModel runs random burst sizes, single enqueues and
// batch dequeues against a slice model over many laps of a small ring: a
// burst takes exactly the free slots (all of it, a prefix, or nothing
// when full) and everything comes out once, in order.
func TestRingBurstAgainstModel(t *testing.T) {
	const size = 16
	r := newRing(size)
	src := rng.New(5)
	var slots packetSlots
	var model []ringItem // what the ring holds, oldest first
	next := 0.0          // ID and at stamp items uniquely, in enqueue order
	item := func() ringItem {
		next++
		return ringItem{pkt: netsim.Packet{ID: uint64(next)}, at: next}
	}
	buf := make([]core.BatchItem, size)
	partial, full := 0, 0
	for op := 0; op < 20000; op++ {
		switch src.Intn(3) {
		case 0:
			items := make([]ringItem, 1+src.Intn(size+4))
			for i := range items {
				items[i] = item()
			}
			free := size - len(model)
			want := len(items)
			if want > free {
				want = free
				partial++
			}
			if got := r.tryEnqueueBurst(items); got != want {
				t.Fatalf("op %d: burst of %d into %d free slots claimed %d", op, len(items), free, got)
			}
			if want == 0 {
				full++
			}
			model = append(model, items[:want]...)
		case 1:
			it := item()
			if got, want := r.tryEnqueue(&it.pkt, it.at), len(model) < size; got != want {
				t.Fatalf("op %d: single enqueue into %d held = %v", op, len(model), got)
			} else if got {
				model = append(model, it)
			}
		default:
			room := 1 + src.Intn(size)
			n := r.dequeueBatch(buf[:room], &slots)
			if want := min(room, len(model)); n != want {
				t.Fatalf("op %d: dequeued %d of %d held into room for %d", op, n, len(model), room)
			}
			for i := 0; i < n; i++ {
				if buf[i].Pkt.ID != model[i].pkt.ID || buf[i].At != model[i].at {
					t.Fatalf("op %d: dequeued packet %d at %v, model holds %d at %v", op, buf[i].Pkt.ID, buf[i].At, model[i].pkt.ID, model[i].at)
				}
				slots.release(buf[i].Pkt)
			}
			model = model[n:]
		}
		if r.empty() != (len(model) == 0) || r.occupancy() != len(model) {
			t.Fatalf("op %d: empty=%v occupancy=%d, model holds %d", op, r.empty(), r.occupancy(), len(model))
		}
	}
	if laps := r.deq / size; laps < 3 || partial == 0 || full == 0 {
		t.Fatalf("run too tame: %d laps, %d partial claims, %d full refusals", laps, partial, full)
	}
	if r.tryEnqueueBurst(nil) != 0 {
		t.Fatal("empty burst claimed slots")
	}
}

// TestRingBurstConcurrentProducers: two producers push runs of varying
// length while the consumer drains; nothing is lost or duplicated and
// each producer's items arrive in the order it pushed them.
func TestRingBurstConcurrentProducers(t *testing.T) {
	const (
		producers = 2
		perProd   = 40000
	)
	r := newRing(64)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			run := make([]ringItem, 0, 48)
			for i := 0; i < perProd; {
				run = run[:0]
				for n := 1 + (i+p)%48; len(run) < n && i < perProd; i++ {
					// at carries producer and sequence number.
					run = append(run, ringItem{at: float64(p*perProd + i)})
				}
				for rest := run; len(rest) > 0; {
					n := r.tryEnqueueBurst(rest)
					if n == 0 {
						runtime.Gosched()
					}
					rest = rest[n:]
				}
			}
		}(p)
	}
	var next [producers]int
	var slots packetSlots
	buf := make([]core.BatchItem, 32)
	for got := 0; got < producers*perProd; {
		n := r.dequeueBatch(buf, &slots)
		if n == 0 {
			runtime.Gosched()
		}
		for _, it := range buf[:n] {
			p, seq := int(it.At)/perProd, int(it.At)%perProd
			if seq != next[p] {
				t.Fatalf("producer %d: item %d arrived where %d was due", p, seq, next[p])
			}
			next[p]++
			slots.release(it.Pkt)
		}
		got += n
	}
	wg.Wait()
	if !r.empty() {
		t.Fatal("ring not empty after consuming every item")
	}
}

// TestRingSeal: a sealed ring reports full to both enqueue paths for good,
// on any lap, while what was claimed before the seal drains as ever and
// occupancy counts it down to zero.
func TestRingSeal(t *testing.T) {
	r := newRing(4)
	var slots packetSlots
	pkts := make([]ringItem, 8)
	for i := range pkts {
		pkts[i].pkt.ID = uint64(i)
	}
	buf := make([]core.BatchItem, 8)
	// One and a half laps, so the cursor is off the first lap when sealed.
	for i := 0; i < 6; i++ {
		if !r.tryEnqueue(&pkts[i].pkt, 0) {
			t.Fatalf("enqueue %d failed", i)
		}
		if i == 3 {
			if n := r.dequeueBatch(buf, &slots); n != 4 {
				t.Fatalf("dequeued %d, want 4", n)
			}
		}
	}
	r.seal()
	if r.tryEnqueue(&pkts[6].pkt, 0) {
		t.Fatal("tryEnqueue succeeded on a sealed ring")
	}
	if n := r.tryEnqueueBurst(pkts[6:]); n != 0 {
		t.Fatalf("tryEnqueueBurst claimed %d slots of a sealed ring", n)
	}
	if got := r.occupancy(); got != 2 {
		t.Fatalf("occupancy %d behind the seal, want the 2 items enqueued before it", got)
	}
	if n := r.dequeueBatch(buf, &slots); n != 2 || buf[0].Pkt.ID != 4 || buf[1].Pkt.ID != 5 {
		t.Fatalf("drained %d items behind the seal, want packets 4 and 5 in order", n)
	}
	if !r.empty() || r.occupancy() != 0 {
		t.Fatalf("sealed ring not empty after its drain: occupancy %d", r.occupancy())
	}
	if r.tryEnqueue(&pkts[6].pkt, 0) || r.tryEnqueueBurst(pkts[:1]) != 0 {
		t.Fatal("a drained sealed ring took an item")
	}
}
