package dropfilter

import "testing"

// RecordDrop and Query are on the router's per-drop path and must not
// allocate. These gates are also the
// regression lock for the arraySpan refactor: arraysFor used to build a
// fresh []int of array indices on every operation.

func TestZeroAllocRecordDrop(t *testing.T) {
	f, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	const epoch = 0.1
	if avg := testing.AllocsPerRun(200, func() {
		f.RecordDrop(0x9e3779b97f4a7c15, 1.0, epoch, 2, 1)
	}); avg != 0 {
		t.Fatalf("RecordDrop allocates %.1f times per op, want 0", avg)
	}
}

func TestZeroAllocQuery(t *testing.T) {
	f, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	const epoch = 0.1
	// Two drops: the first creates the record (the entitled one-per-epoch
	// drop), the second is the excess that Query must see.
	f.RecordDrop(0x9e3779b97f4a7c15, 1.0, epoch, 2, 1)
	f.RecordDrop(0x9e3779b97f4a7c15, 1.0, epoch, 2, 1)
	if avg := testing.AllocsPerRun(200, func() {
		st := f.Query(0x9e3779b97f4a7c15, 1.0, epoch, 2)
		if st.D == 0 {
			t.Fatal("recorded drop not visible")
		}
	}); avg != 0 {
		t.Fatalf("Query allocates %.1f times per op, want 0", avg)
	}
}

// TestArraysForSpan pins the arraySpan index walk to the semantics of the
// old slice-building arraysFor: same start array, same count, same
// wrap-around order.
func TestArraysForSpan(t *testing.T) {
	f, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := f.cfg.Arrays
	for _, k := range []int{0, 1, 2, 3, m, m + 1} {
		for _, h := range []uint64{0, 1, 0xdeadbeef, 1 << 17, 0xffffffffffffffff} {
			span := f.arraysFor(h, k)
			want := make([]int, 0, m)
			if k <= 0 || k >= m {
				for i := 0; i < m; i++ {
					want = append(want, i)
				}
			} else {
				start := int((h >> 17) % uint64(m))
				for j := 0; j < k; j++ {
					want = append(want, (start+j)%m)
				}
			}
			if span.n != len(want) {
				t.Fatalf("h=%#x k=%d: span.n = %d, want %d", h, k, span.n, len(want))
			}
			for j := 0; j < span.n; j++ {
				if got := span.index(j); got != want[j] {
					t.Fatalf("h=%#x k=%d: index(%d) = %d, want %d", h, k, j, got, want[j])
				}
			}
		}
	}
}

// BenchmarkFilterUpdate is the dropfilter_update family of check.sh's
// perf-gate: ns/op for one RecordDrop with array
// subsetting active, over a spread of flow hashes.
func BenchmarkFilterUpdate(b *testing.B) {
	f, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	const epoch = 0.1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := uint64(i) * 0x9e3779b97f4a7c15
		f.RecordDrop(h, 1.0, epoch, 2, 1)
	}
}

// BenchmarkFilterQuery complements the update benchmark with the read
// side the admission path takes per attack-path packet.
func BenchmarkFilterQuery(b *testing.B) {
	f, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	const epoch = 0.1
	for i := 0; i < 1024; i++ {
		f.RecordDrop(uint64(i)*0x9e3779b97f4a7c15, 1.0, epoch, 2, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := uint64(i) * 0x9e3779b97f4a7c15
		_ = f.Query(h, 1.0, epoch, 2)
	}
}

// BenchmarkFilterLocality exercises the blocked layout under a working
// set far larger than L2, where the old per-array striding paid one
// cache miss per counter array and the blocked layout pays one or two
// for the whole record block. The hash sequence revisits each flow so
// both the create and the update paths are measured cold.
func BenchmarkFilterLocality(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Bits = 18 // 256Ki blocks * 32 B = 8 MiB, well past L2
	f, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	const epoch = 0.1
	const flows = 1 << 16
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A stride co-prime with the flow count scatters consecutive
		// accesses across the whole table, defeating the prefetcher.
		h := uint64(i%flows) * 0x9e3779b97f4a7c15
		f.RecordDrop(h, 1.0, epoch, 2, 1)
		_ = f.Query(h, 1.0, epoch, 2)
	}
}
