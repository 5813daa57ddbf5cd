package dataplane

import (
	"runtime"
	"testing"

	"floc/internal/core"
	"floc/internal/netsim"
	"floc/internal/rng"
)

// push stages one packet and publishes it: the ring's one-packet form.
func push(r *ring, pkt *netsim.Packet, at float64) bool {
	it := r.stage()
	if it == nil {
		return false
	}
	it.pkt, it.at = *pkt, at
	_, ok := r.publish()
	return ok
}

func TestRingFIFOAndCapacity(t *testing.T) {
	r := newRing(4)
	var slots packetSlots
	pkts := make([]netsim.Packet, 5)
	for i := range pkts {
		pkts[i].ID = uint64(i)
	}
	for i := 0; i < 4; i++ {
		if !push(r, &pkts[i], float64(i)) {
			t.Fatalf("enqueue %d failed on non-full ring", i)
		}
	}
	if r.stage() != nil {
		t.Fatal("staged into a full ring")
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
		if !push(r, &pkts[i], 0) {
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

// TestRingConcurrentProducers: the ring's one producer publishes every
// packet on its own while its one consumer drains beside it (run it under
// -race); nothing is lost, duplicated or reordered.
func TestRingConcurrentProducers(t *testing.T) {
	const packets = 40000
	r := newRing(256)
	done := make(chan struct{})
	go func() {
		defer close(done)
		pkt := netsim.Packet{}
		for i := 0; i < packets; i++ {
			pkt.ID = uint64(i)
			for !push(r, &pkt, float64(i)) {
				runtime.Gosched()
			}
		}
	}()
	consumeInOrder(t, r, packets)
	<-done
}

// consumeInOrder drains n items from r as its consumer and fails unless
// they come out numbered 0, 1, 2, … by their at stamps.
func consumeInOrder(t *testing.T, r *ring, n int) {
	t.Helper()
	var slots packetSlots
	buf := make([]core.BatchItem, 32)
	for got := 0; got < n; {
		k := r.dequeueBatch(buf, &slots)
		if k == 0 {
			runtime.Gosched()
		}
		for _, it := range buf[:k] {
			if int(it.At) != got {
				t.Fatalf("item %v arrived where %d was due", it.At, got)
			}
			got++
			slots.release(it.Pkt)
		}
	}
	if !r.empty() {
		t.Fatal("ring not empty after consuming every item")
	}
}

// TestRingBurstAgainstModel runs random staging, publishes and batch
// dequeues against a slice model over many laps of a small ring: staging
// takes exactly the free slots and refuses the rest, a staged item is
// invisible until its publish, and everything comes out once, in order.
func TestRingBurstAgainstModel(t *testing.T) {
	const size = 16
	r := newRing(size)
	src := rng.New(5)
	var slots packetSlots
	var published, staged []ringItem // the consumer's items and the producer's, oldest first
	next := 0.0                      // ID and at stamp items uniquely, in staging order
	buf := make([]core.BatchItem, size)
	refused := 0
	for op := 0; op < 20000; op++ {
		switch src.Intn(3) {
		case 0:
			for k := 1 + src.Intn(size+4); k > 0; k-- {
				it := r.stage()
				if full := len(published)+len(staged) == size; (it == nil) != full {
					t.Fatalf("op %d: stage with %d held returned %v", op, len(published)+len(staged), it)
				}
				if it == nil {
					refused++
					break
				}
				next++
				*it = ringItem{pkt: netsim.Packet{ID: uint64(next)}, at: next}
				staged = append(staged, *it)
			}
		case 1:
			if n, ok := r.publish(); n != len(staged) || !ok {
				t.Fatalf("op %d: published %d (ok %v), %d staged", op, n, ok, len(staged))
			}
			published, staged = append(published, staged...), staged[:0]
		default:
			room := 1 + src.Intn(size)
			n := r.dequeueBatch(buf[:room], &slots)
			if want := min(room, len(published)); n != want {
				t.Fatalf("op %d: dequeued %d of %d published into room for %d", op, n, len(published), room)
			}
			for i := 0; i < n; i++ {
				if buf[i].Pkt.ID != published[i].pkt.ID || buf[i].At != published[i].at {
					t.Fatalf("op %d: dequeued packet %d at %v, model holds %d at %v", op, buf[i].Pkt.ID, buf[i].At, published[i].pkt.ID, published[i].at)
				}
				slots.release(buf[i].Pkt)
			}
			published = published[n:]
		}
		if r.empty() != (len(published) == 0) || r.occupancy() != len(published) || r.staged() != len(staged) {
			t.Fatalf("op %d: empty=%v occupancy=%d staged=%d, model holds %d published and %d staged",
				op, r.empty(), r.occupancy(), r.staged(), len(published), len(staged))
		}
	}
	if laps := r.head.Load() / size; laps < 3 || refused == 0 {
		t.Fatalf("run too tame: %d laps, %d refusals", laps, refused)
	}
	if n, ok := r.publish(); n != len(staged) || !ok {
		t.Fatalf("final publish: %d (ok %v), %d staged", n, ok, len(staged))
	}
	if n, ok := r.publish(); n != 0 || !ok {
		t.Fatalf("publishing nothing published %d (ok %v)", n, ok)
	}
}

// TestRingBurstConcurrentProducers: the ring's one producer stages runs
// of varying length, waiting out a full ring, and publishes each whole
// while its one consumer drains beside it (run it under -race); nothing
// is lost or duplicated and the items arrive in the order staged.
func TestRingBurstConcurrentProducers(t *testing.T) {
	const packets = 80000
	r := newRing(64)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < packets; {
			for n := 1 + i%48; n > 0 && i < packets; n-- {
				it := r.stage()
				for it == nil {
					r.publish() // the consumer frees no slot it cannot see
					runtime.Gosched()
					it = r.stage()
				}
				it.at = float64(i) // at carries the sequence number
				i++
			}
			r.publish()
		}
	}()
	consumeInOrder(t, r, packets)
	<-done
}

// TestRingSeal: a sealed ring refuses every publish for good, on any lap,
// and gives the refused run's slots back to the producer, while what was
// published before the seal drains as ever and occupancy counts it down
// to zero.
func TestRingSeal(t *testing.T) {
	r := newRing(4)
	var slots packetSlots
	pkts := make([]netsim.Packet, 8)
	for i := range pkts {
		pkts[i].ID = uint64(i)
	}
	buf := make([]core.BatchItem, 8)
	// One and a half laps, so the cursor is off the first lap when sealed.
	for i := 0; i < 6; i++ {
		if !push(r, &pkts[i], 0) {
			t.Fatalf("enqueue %d failed", i)
		}
		if i == 3 {
			if n := r.dequeueBatch(buf, &slots); n != 4 {
				t.Fatalf("dequeued %d, want 4", n)
			}
		}
	}
	r.stage().pkt = pkts[6]
	r.seal()
	if n, ok := r.publish(); n != 1 || ok {
		t.Fatalf("publish on a sealed ring: %d (ok %v), want the 1 staged refused", n, ok)
	}
	if r.staged() != 0 {
		t.Fatalf("%d items still staged after a refused publish", r.staged())
	}
	if got := r.occupancy(); got != 2 {
		t.Fatalf("occupancy %d behind the seal, want the 2 items published before it", got)
	}
	if n := r.dequeueBatch(buf, &slots); n != 2 || buf[0].Pkt.ID != 4 || buf[1].Pkt.ID != 5 {
		t.Fatalf("drained %d items behind the seal, want packets 4 and 5 in order", n)
	}
	if !r.empty() || r.occupancy() != 0 {
		t.Fatalf("sealed ring not empty after its drain: occupancy %d", r.occupancy())
	}
	for i := 0; i < 4; i++ { // a whole lap of slots is free to stage, and none publishes
		if r.stage() == nil {
			t.Fatalf("stage %d refused on a drained sealed ring", i)
		}
	}
	if n, ok := r.publish(); n != 4 || ok || !r.empty() {
		t.Fatalf("a drained sealed ring took %d items (ok %v)", n, ok)
	}
}
