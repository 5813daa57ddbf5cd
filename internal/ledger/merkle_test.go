package ledger

import (
	"fmt"
	"testing"
)

// mkLeaves builds n distinct leaf hashes.
func mkLeaves(n int) []Hash {
	leaves := make([]Hash, n)
	for i := range leaves {
		leaves[i] = LeafHash([]byte(fmt.Sprintf(`{"i":%d}`, i)))
	}
	return leaves
}

func TestRootDeterministicAndOrderSensitive(t *testing.T) {
	leaves := mkLeaves(7)
	r1 := RootOf(leaves)
	r2 := RootOf(mkLeaves(7))
	if r1 != r2 {
		t.Fatal("root not deterministic over identical leaves")
	}
	swapped := mkLeaves(7)
	swapped[2], swapped[3] = swapped[3], swapped[2]
	if RootOf(swapped) == r1 {
		t.Fatal("root unchanged by leaf reorder")
	}
	if RootOf(nil) != LeafHash(nil) {
		t.Fatal("empty tree must hash to the empty leaf")
	}
}

func TestLeafNodeDomainSeparation(t *testing.T) {
	// A single-leaf tree's root is the leaf itself, but a two-leaf tree
	// over the same bytes must not collide with any leaf of those bytes:
	// the 0x00/0x01 prefixes keep the domains apart.
	l := LeafHash([]byte("x"))
	if nodeHash(l, l) == l {
		t.Fatal("interior node collided with leaf")
	}
}
