package wire

import (
	"testing"

	"floc/internal/pathid"
	"floc/internal/rng"
)

// modelEntry is what the reference — a plain map keyed by the rendered
// path — remembers per path.
type modelEntry struct {
	id     pathid.PathID // the canonical PathID the interner handed out first
	handle uint32
	bound  bool
}

// modelPaths builds the path pool the model test draws from: every
// prefix of one 16-domain path (lengths 0…16, each a prefix of the next),
// the same AS numbers in other orders, and enough unrelated paths to
// force the table through several growths.
func modelPaths(src *rng.Source) [][]pathid.ASN {
	long := make([]pathid.ASN, MaxPathLen)
	for i := range long {
		long[i] = pathid.ASN(1000 + i)
	}
	var paths [][]pathid.ASN
	for n := 0; n <= MaxPathLen; n++ {
		paths = append(paths, append([]pathid.ASN(nil), long[:n]...))
	}
	for n := 2; n <= MaxPathLen; n += 3 {
		rev := append([]pathid.ASN(nil), long[:n]...)
		for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
			rev[i], rev[j] = rev[j], rev[i]
		}
		rot := append(append([]pathid.ASN(nil), long[1:n]...), long[0])
		paths = append(paths, rev, rot)
	}
	for len(paths) < 400 {
		p := make([]pathid.ASN, 1+src.Intn(MaxPathLen))
		for i := range p {
			p[i] = pathid.ASN(src.Intn(50)) // small alphabet: many shared prefixes
		}
		paths = append(paths, p)
	}
	return paths
}

// TestInternerAgainstModel drives the open-addressed table op by op
// against a map, under the real hash, a constant hash (every probe
// collides with every entry) and a hash that lands everything in the
// table's last slots (every probe sequence wraps). Headers carry garbage
// past PathLen, which must take no part in identity. The internerMax
// boundary is TestInternerAtBound's.
func TestInternerAgainstModel(t *testing.T) {
	hashers := map[string]func([]pathid.ASN) uint32{
		"uniform":  hashPath,
		"constant": func([]pathid.ASN) uint32 { return 7 },
		"wrap":     func(p []pathid.ASN) uint32 { return ^uint32(0) - hashPath(p)%3 },
	}
	for name, hash := range hashers {
		t.Run(name, func(t *testing.T) {
			src := rng.New(11)
			paths := modelPaths(src)
			in := NewInterner()
			model := map[string]*modelEntry{}
			grown := false
			for op := 0; op < 20000; op++ {
				p := paths[src.Intn(len(paths))]
				h := Header{PathLen: uint8(len(p))}
				copy(h.Path[:], p)
				for i := len(p); i < MaxPathLen; i++ {
					h.Path[i] = pathid.ASN(src.Uint64())
				}
				want := pathid.New(p...)
				key := want.Key()

				if src.Intn(4) == 0 {
					handle := uint32(src.Intn(3)) // 0 is a valid binding
					in.bind(hash(p), &h, handle)
					if m := model[key]; m != nil {
						m.handle, m.bound = handle, true
					}
					continue
				}
				got := in.resolve(hash(p), &h)
				if got.Key != key || !got.ID.Equal(want) {
					t.Fatalf("op %d: path %v resolved to id=%v key=%q", op, p, got.ID, got.Key)
				}
				m := model[key]
				if m == nil {
					if got.Bound || got.Handle != 0 {
						t.Fatalf("op %d: first sighting of %v came back bound (%d)", op, p, got.Handle)
					}
					model[key] = &modelEntry{id: got.ID}
				} else {
					if got.Bound != m.bound || got.Handle != m.handle {
						t.Fatalf("op %d: path %v binding (%d,%v), model (%d,%v)", op, p, got.Handle, got.Bound, m.handle, m.bound)
					}
					if len(p) > 0 && &got.ID[0] != &m.id[0] {
						t.Fatalf("op %d: path %v lost its canonical PathID", op, p)
					}
				}
				if in.Len() != len(model) {
					t.Fatalf("op %d: interner holds %d paths, model %d", op, in.Len(), len(model))
				}
				grown = grown || len(in.slots) > internerMinSlots
			}
			if !grown || len(model) < len(paths)/2 {
				t.Fatalf("run never grew the table or saw few paths: %d slots, %d of %d paths", len(in.slots), len(model), len(paths))
			}
		})
	}
}
