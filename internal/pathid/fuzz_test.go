package pathid

import "testing"

// FuzzTreeOps inserts and removes arbitrary paths and checks structural
// invariants: leaves reconstruct to their inserted identifiers, and
// removal prunes without breaking other paths.
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

func FuzzTreeOps(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6}, uint8(2))
	f.Add([]byte{9, 9, 9}, uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, removeIdx uint8) {
		tr := NewTree(0)
		var paths []PathID
		for i := 0; i+2 < len(raw) && len(paths) < 16; i += 3 {
			// One to three domains: shorter paths end at inner nodes of
			// longer ones, as sources homed in interior ASes do.
			p := New(ASN(raw[i])+1, ASN(raw[i+1])+1, ASN(raw[i+2])+1).Postfix(1 + int(raw[i])%3)
			if _, err := tr.Insert(p); err != nil {
				t.Fatal(err)
			}
			paths = append(paths, p)
		}
		if len(paths) == 0 {
			return
		}
		// Every leaf must reconstruct to some inserted path.
		inserted := map[string]bool{}
		for _, p := range paths {
			inserted[p.Key()] = true
		}
		for _, leaf := range tr.Leaves() {
			if !inserted[leaf.Path().Key()] {
				t.Fatalf("leaf %v not inserted", leaf.Path())
			}
		}
		// Remove one path; the others must survive.
		victim := paths[int(removeIdx)%len(paths)]
		tr.Remove(victim)
		for _, p := range paths {
			if p.Key() == victim.Key() {
				continue
			}
			if tr.Leaf(p) == nil {
				t.Fatalf("removing %v destroyed %v", victim, p)
			}
		}
		if got := len(tr.Leaves()); got != tr.NumLeaves() {
			t.Fatalf("after removing %v: %d reachable leaves, %d paths", victim, got, tr.NumLeaves())
		}
	})
}
