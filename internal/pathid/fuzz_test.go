package pathid

import "testing"

// FuzzParseKey drives Parse with arbitrary strings and checks the
// Key/Parse roundtrip contract in both directions: a successful parse
// reproduces its input exactly via Key, parses never panic, and every
// parsed path is insertable into a tree and reconstructible from its
// leaf.
func FuzzParseKey(f *testing.F) {
	f.Add("64-7-1")
	f.Add("0")
	f.Add("4294967295")
	f.Add("1-2-3-4-5-6-7-8")
	f.Add("")
	f.Add("a-b")
	f.Add("1--2")
	f.Add("01")
	f.Add("+1")
	f.Add("-1")
	f.Add("4294967296")
	f.Fuzz(func(t *testing.T, key string) {
		p, err := Parse(key)
		if err != nil {
			return // invalid inputs only need to be rejected cleanly
		}
		if len(p) == 0 {
			t.Fatalf("Parse(%q) succeeded with an empty path", key)
		}
		if got := p.Key(); got != key {
			t.Fatalf("Parse(%q).Key() = %q, want the input back", key, got)
		}
		back, err := Parse(p.Key())
		if err != nil || !back.Equal(p) {
			t.Fatalf("re-parsing %q gave %v, %v", p.Key(), back, err)
		}
		tr := NewTree(0)
		leaf, err := tr.Insert(p)
		if err != nil {
			t.Fatalf("inserting parsed path %v: %v", p, err)
		}
		if !leaf.Path().Equal(p) {
			t.Fatalf("leaf reconstructs to %v, want %v", leaf.Path(), p)
		}
	})
}

// FuzzTreeOps inserts and removes arbitrary paths and checks structural
// invariants: leaves reconstruct to their inserted identifiers, and
// removal prunes without breaking other paths.
// Insert is idempotent: a duplicate returns the same node and the leaf
// count is the number of distinct paths. A second Remove of one leaf is a
// no-op.
func FuzzTreeOps(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6}, uint8(2))
	f.Add([]byte{9, 9, 9}, uint8(0))
	f.Add([]byte{1, 2, 3, 1, 2, 3, 2, 9, 9}, uint8(1))
	f.Fuzz(func(t *testing.T, raw []byte, removeIdx uint8) {
		tr := NewTree(0)
		var paths []PathID
		leaves := map[string]*Node{}
		for i := 0; i+2 < len(raw) && len(paths) < 16; i += 3 {
			// One to three domains: shorter paths end at inner nodes of
			// longer ones, as sources homed in interior ASes do.
			p := New(ASN(raw[i])+1, ASN(raw[i+1])+1, ASN(raw[i+2])+1).Postfix(1 + int(raw[i])%3)
			leaf, err := tr.Insert(p)
			if err != nil {
				t.Fatal(err)
			}
			if prev, ok := leaves[p.Key()]; ok && prev != leaf {
				t.Fatalf("re-inserting %v returned a different node", p)
			}
			leaves[p.Key()] = leaf
			paths = append(paths, p)
		}
		if len(paths) == 0 {
			return
		}
		if tr.NumLeaves() != len(leaves) {
			t.Fatalf("NumLeaves = %d after inserting %d distinct paths", tr.NumLeaves(), len(leaves))
		}
		// Every leaf must reconstruct to some inserted path.
		for _, leaf := range tr.Leaves() {
			if leaves[leaf.Path().Key()] != leaf {
				t.Fatalf("leaf %v not inserted", leaf.Path())
			}
		}
		// Remove one path; the others must survive.
		victim := paths[int(removeIdx)%len(paths)]
		gone := leaves[victim.Key()]
		tr.Remove(gone)
		delete(leaves, victim.Key())
		for _, p := range paths {
			if p.Key() == victim.Key() {
				continue
			}
			if again, _ := tr.Insert(p); again != leaves[p.Key()] {
				t.Fatalf("removing %v destroyed %v", victim, p)
			}
		}
		if got := len(tr.Leaves()); got != tr.NumLeaves() || got != len(leaves) {
			t.Fatalf("after removing %v: %d reachable leaves, %d paths, want %d", victim, got, tr.NumLeaves(), len(leaves))
		}
		// The victim's leaf is no longer a path's: removing it again is a no-op.
		n := tr.NumLeaves()
		tr.Remove(gone)
		if tr.NumLeaves() != n {
			t.Fatalf("second Remove of %v changed NumLeaves from %d to %d", victim, n, tr.NumLeaves())
		}
	})
}
