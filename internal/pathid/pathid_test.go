package pathid

import (
	"testing"
	"testing/quick"
)

func TestPathIDBasics(t *testing.T) {
	p := New(7, 3, 1)
	if p.Origin() != 7 {
		t.Fatalf("Origin = %d", p.Origin())
	}
	if p.Len() != 3 {
		t.Fatalf("Len = %d", p.Len())
	}
	if p.Key() != "7-3-1" {
		t.Fatalf("Key = %q", p.Key())
	}
	if p.String() != "S[7-3-1]" {
		t.Fatalf("String = %q", p.String())
	}
	if PathID(nil).Origin() != 0 || PathID(nil).Key() != "" {
		t.Fatal("empty path accessors wrong")
	}
}

func TestEqual(t *testing.T) {
	cases := []struct {
		a, b PathID
		want bool
	}{
		{New(1, 2), New(1, 2), true},
		{New(1, 2), New(1, 3), false},
		{New(1, 2), New(1, 2, 3), false},
		{New(), New(), true},
	}
	for _, tc := range cases {
		if got := tc.a.Equal(tc.b); got != tc.want {
			t.Errorf("%v.Equal(%v) = %v", tc.a, tc.b, got)
		}
	}
}

func TestPostfix(t *testing.T) {
	p := New(9, 5, 3, 1)
	if got := p.Postfix(2); !got.Equal(New(3, 1)) {
		t.Fatalf("Postfix(2) = %v", got)
	}
	if got := p.Postfix(10); !got.Equal(p) {
		t.Fatalf("Postfix(10) = %v", got)
	}
	if got := p.Postfix(0); got.Len() != 0 {
		t.Fatalf("Postfix(0) = %v", got)
	}
	if got := p.Postfix(-1); got.Len() != 0 {
		t.Fatalf("Postfix(-1) = %v", got)
	}
}

func TestSharedPostfix(t *testing.T) {
	cases := []struct {
		a, b PathID
		want int
	}{
		{New(9, 5, 3, 1), New(8, 5, 3, 1), 3},
		{New(9, 5, 3, 1), New(9, 5, 3, 1), 4},
		{New(1, 2), New(3, 4), 0},
		{New(2, 1), New(7, 6, 2, 1), 2},
		{New(), New(1), 0},
	}
	for _, tc := range cases {
		if got := tc.a.SharedPostfix(tc.b); got != tc.want {
			t.Errorf("SharedPostfix(%v, %v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestSharedPostfixSymmetric(t *testing.T) {
	f := func(a, b []uint32) bool {
		pa, pb := make(PathID, len(a)), make(PathID, len(b))
		for i, v := range a {
			pa[i] = ASN(v % 16)
		}
		for i, v := range b {
			pb[i] = ASN(v % 16)
		}
		return pa.SharedPostfix(pb) == pb.SharedPostfix(pa)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTreeInsertAndStructure(t *testing.T) {
	tr := NewTree(0)
	paths := []PathID{
		New(4, 2, 1),
		New(5, 2, 1),
		New(6, 3, 1),
		New(7, 1),
	}
	leaves := make([]*Node, len(paths))
	for i, p := range paths {
		leaf, err := tr.Insert(p)
		if err != nil {
			t.Fatal(err)
		}
		leaves[i] = leaf
	}
	if tr.NumLeaves() != 4 {
		t.Fatalf("NumLeaves = %d", tr.NumLeaves())
	}
	// Root has exactly one child: AS 1 (the domain adjacent to the router).
	if len(tr.Root().Children) != 1 {
		t.Fatalf("root children = %d", len(tr.Root().Children))
	}
	as1 := tr.Root().Children[1]
	if as1 == nil || len(as1.Children) != 3 { // 2, 3, 7
		t.Fatalf("AS1 children wrong: %v", as1)
	}
	leaf := leaves[0]
	if leaf == nil || leaf.AS != 4 || !leaf.IsLeaf() {
		t.Fatalf("leaf lookup failed: %+v", leaf)
	}
	if leaf.Depth() != 3 {
		t.Fatalf("leaf depth = %d", leaf.Depth())
	}
	if got := leaf.Path(); !got.Equal(New(4, 2, 1)) {
		t.Fatalf("leaf.Path() = %v", got)
	}
}

func TestTreeInsertIdempotent(t *testing.T) {
	tr := NewTree(0)
	a, err := tr.Insert(New(4, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := tr.Insert(New(4, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("re-insert created a new leaf")
	}
	if tr.NumLeaves() != 1 {
		t.Fatalf("NumLeaves = %d", tr.NumLeaves())
	}
}

func TestTreeInsertEmptyErrors(t *testing.T) {
	tr := NewTree(0)
	if _, err := tr.Insert(New()); err == nil {
		t.Fatal("inserting empty path did not error")
	}
}

func TestTreeLeavesDeterministicOrder(t *testing.T) {
	build := func() []string {
		tr := NewTree(0)
		for _, p := range []PathID{New(9, 1), New(3, 1), New(5, 2), New(4, 2)} {
			tr.Insert(p)
		}
		var keys []string
		for _, l := range tr.Leaves() {
			keys = append(keys, l.Path().Key())
		}
		return keys
	}
	a, b := build(), build()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order differs at %d: %v vs %v", i, a, b)
		}
	}
	want := []string{"3-1", "9-1", "4-2", "5-2"}
	for i, k := range want {
		if a[i] != k {
			t.Fatalf("leaf order = %v, want %v", a, want)
		}
	}
}

func TestInnerNodes(t *testing.T) {
	tr := NewTree(0)
	tr.Insert(New(4, 2, 1))
	tr.Insert(New(5, 2, 1))
	tr.Insert(New(6, 1))
	inner := tr.InnerNodes()
	// Inner (non-root, non-leaf) nodes: AS1, AS2.
	if len(inner) != 2 {
		t.Fatalf("inner nodes = %d, want 2", len(inner))
	}
	if inner[0].AS != 1 || inner[1].AS != 2 {
		t.Fatalf("inner = [%d %d]", inner[0].AS, inner[1].AS)
	}
}

// TestTreeNestedOrigins: a path may end at an AS other paths traverse
// (sources homed in an interior AS). It stays a leaf below its inner
// node, and removing the longer path neither hides nor detaches it.
func TestTreeNestedOrigins(t *testing.T) {
	tr := NewTree(0)
	inner, _ := tr.Insert(New(1, 2))
	tr.Insert(New(3, 1, 2))
	if got := len(tr.Leaves()); got != 2 {
		t.Fatalf("Leaves() = %d paths, want 2", got)
	}
	if !inner.IsLeaf() {
		t.Fatal("path [1 2] with a child is not a leaf")
	}
	if nodes := tr.InnerNodes(); len(nodes) != 2 || nodes[0].AS != 2 || nodes[1] != inner {
		t.Fatalf("InnerNodes() = %v, want AS 2 and the path node [1 2]", nodes)
	}
	if got := len(inner.Leaves()); got != 2 {
		t.Fatalf("[1 2].Leaves() = %d, want itself and [3 1 2]", got)
	}
	outer, _ := tr.Insert(New(3, 1, 2))
	tr.Remove(outer)
	if got, n := len(tr.Leaves()), tr.NumLeaves(); got != 1 || n != 1 {
		t.Fatalf("after removing [3 1 2]: Leaves() = %d, NumLeaves() = %d, want 1 and 1", got, n)
	}
	if len(tr.InnerNodes()) != 1 {
		t.Fatalf("InnerNodes() = %v, want AS 2 only", tr.InnerNodes())
	}
	again, _ := tr.Insert(New(1, 2))
	if again != inner || tr.Root().Children[2].Children[1] != inner {
		t.Fatal("re-inserting [1 2] returned a node detached from the tree")
	}
}

func TestTreeRemove(t *testing.T) {
	tr := NewTree(0)
	a, _ := tr.Insert(New(4, 2, 1))
	b, _ := tr.Insert(New(5, 2, 1))
	tr.Remove(a)
	if tr.NumLeaves() != 1 {
		t.Fatalf("NumLeaves = %d", tr.NumLeaves())
	}
	if a.IsLeaf() || tr.Root().Children[1].Children[2].Children[4] != nil {
		t.Fatal("removed leaf still present")
	}
	// AS2 must still exist (it still has child 5).
	if tr.Root().Children[1].Children[2] == nil {
		t.Fatal("shared ancestor pruned too eagerly")
	}
	tr.Remove(b)
	if len(tr.Root().Children) != 0 {
		t.Fatal("empty ancestors not pruned")
	}
	// Removing a leaf twice is a no-op.
	tr.Remove(b)
	if tr.NumLeaves() != 0 {
		t.Fatalf("second Remove changed NumLeaves to %d", tr.NumLeaves())
	}
}

func TestTreeRemoveKeepsRootAlive(t *testing.T) {
	tr := NewTree(0)
	leaf, _ := tr.Insert(New(3, 1))
	tr.Remove(leaf)
	if tr.Root() == nil {
		t.Fatal("root destroyed")
	}
	if _, err := tr.Insert(New(3, 1)); err != nil {
		t.Fatalf("re-insert after full removal failed: %v", err)
	}
}

func TestLeafPathReconstructionProperty(t *testing.T) {
	f := func(raw [][3]byte) bool {
		tr := NewTree(0)
		inserted := map[string]bool{}
		for _, r := range raw {
			p := New(ASN(r[0])+1, ASN(r[1])+1, ASN(r[2])+1)
			if _, err := tr.Insert(p); err != nil {
				return false
			}
			inserted[p.Key()] = true
		}
		// Reconstruction must recover every inserted path exactly, and the
		// number of leaves equals the number of distinct paths.
		if tr.NumLeaves() != len(inserted) {
			return false
		}
		for _, l := range tr.Leaves() {
			if !inserted[l.Path().Key()] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
