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

// TestRingBurstAgainstModel runs random burst sizes, single enqueues and
// batch dequeues against a slice model over many laps of a small ring: a
// burst takes exactly the free slots (all of it, a prefix, or nothing
// when full) and everything comes out once, in order.
func TestRingBurstAgainstModel(t *testing.T) {
	const size = 16
	r := newRing(size)
	src := rng.New(5)
	pkts := make([]netsim.Packet, 64)
	var model []core.BatchItem // what the ring holds, oldest first
	next := 0.0                // At stamps items uniquely, in enqueue order
	item := func() core.BatchItem {
		next++
		return core.BatchItem{Pkt: &pkts[int(next)%len(pkts)], At: next}
	}
	buf := make([]core.BatchItem, size)
	partial, full := 0, 0
	for op := 0; op < 20000; op++ {
		switch src.Intn(3) {
		case 0:
			items := make([]core.BatchItem, 1+src.Intn(size+4))
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
			if got, want := r.tryEnqueue(it), len(model) < size; got != want {
				t.Fatalf("op %d: single enqueue into %d held = %v", op, len(model), got)
			} else if got {
				model = append(model, it)
			}
		default:
			room := 1 + src.Intn(size)
			n := r.dequeueBatch(buf[:room])
			if want := min(room, len(model)); n != want {
				t.Fatalf("op %d: dequeued %d of %d held into room for %d", op, n, len(model), room)
			}
			for i := 0; i < n; i++ {
				if buf[i] != model[i] {
					t.Fatalf("op %d: dequeued %+v, model holds %+v", op, buf[i], model[i])
				}
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
	var pkt netsim.Packet
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			run := make([]core.BatchItem, 0, 48)
			for i := 0; i < perProd; {
				run = run[:0]
				for n := 1 + (i+p)%48; len(run) < n && i < perProd; i++ {
					// At carries producer and sequence number.
					run = append(run, core.BatchItem{Pkt: &pkt, At: float64(p*perProd + i)})
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
	buf := make([]core.BatchItem, 32)
	for got := 0; got < producers*perProd; {
		n := r.dequeueBatch(buf)
		if n == 0 {
			runtime.Gosched()
		}
		for _, it := range buf[:n] {
			p, seq := int(it.At)/perProd, int(it.At)%perProd
			if seq != next[p] {
				t.Fatalf("producer %d: item %d arrived where %d was due", p, seq, next[p])
			}
			next[p]++
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
	pkts := make([]netsim.Packet, 8)
	buf := make([]core.BatchItem, 8)
	// One and a half laps, so the cursor is off the first lap when sealed.
	for i := 0; i < 6; i++ {
		if !r.tryEnqueue(core.BatchItem{Pkt: &pkts[i]}) {
			t.Fatalf("enqueue %d failed", i)
		}
		if i == 3 {
			if n := r.dequeueBatch(buf); n != 4 {
				t.Fatalf("dequeued %d, want 4", n)
			}
		}
	}
	r.seal()
	if r.tryEnqueue(core.BatchItem{Pkt: &pkts[6]}) {
		t.Fatal("tryEnqueue succeeded on a sealed ring")
	}
	if n := r.tryEnqueueBurst([]core.BatchItem{{Pkt: &pkts[6]}, {Pkt: &pkts[7]}}); n != 0 {
		t.Fatalf("tryEnqueueBurst claimed %d slots of a sealed ring", n)
	}
	if got := r.occupancy(); got != 2 {
		t.Fatalf("occupancy %d behind the seal, want the 2 items enqueued before it", got)
	}
	if n := r.dequeueBatch(buf); n != 2 || buf[0].Pkt != &pkts[4] || buf[1].Pkt != &pkts[5] {
		t.Fatalf("drained %d items behind the seal, want packets 4 and 5 in order", n)
	}
	if !r.empty() || r.occupancy() != 0 {
		t.Fatalf("sealed ring not empty after its drain: occupancy %d", r.occupancy())
	}
	if r.tryEnqueue(core.BatchItem{Pkt: &pkts[6]}) || r.tryEnqueueBurst(buf[:1]) != 0 {
		t.Fatal("a drained sealed ring took an item")
	}
}
