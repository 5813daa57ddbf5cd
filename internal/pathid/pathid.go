// Package pathid implements FLoc's domain path identifiers (paper Section
// III-A) and the traffic tree a congested router builds over the path
// identifiers of its active flows (Section IV-C).
//
// A path identifier names the sequence of domains (Autonomous Systems) a
// packet traverses from its origin domain to the domain of the measuring
// router. It is written once by the BGP speaker of the origin domain, so a
// congested router can attribute every packet to its origin domain and to
// every intermediate domain on its way.
package pathid

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// ASN is an Autonomous System number.
type ASN uint32

// PathID is a domain path identifier S_i = {AS_i, ..., AS_1}: element 0 is
// the origin domain, the last element is the domain adjacent to the
// measuring router. A PathID is immutable once built; treat it as a value.
type PathID []ASN

// New builds a PathID from origin-first AS numbers.
func New(asns ...ASN) PathID {
	p := make(PathID, len(asns))
	copy(p, asns)
	return p
}

// Origin returns the origin domain (the first element), or 0 for an empty
// path.
func (p PathID) Origin() ASN {
	if len(p) == 0 {
		return 0
	}
	return p[0]
}

// Len returns the number of domains on the path.
func (p PathID) Len() int { return len(p) }

// Key returns a canonical string form usable as a map key.
func (p PathID) Key() string {
	if len(p) == 0 {
		return ""
	}
	var b strings.Builder
	for i, as := range p {
		if i > 0 {
			b.WriteByte('-')
		}
		b.WriteString(strconv.FormatUint(uint64(as), 10))
	}
	return b.String()
}

// String implements fmt.Stringer.
func (p PathID) String() string { return "S[" + p.Key() + "]" }

// Parse parses the canonical Key form ("64-7-1") back into a PathID. It
// is the strict inverse of Key: it accepts exactly the strings Key
// produces for non-empty paths (decimal AS numbers without leading
// zeros, joined by '-'), so Parse(p.Key()) == p and parsed.Key() == s.
func Parse(s string) (PathID, error) {
	if s == "" {
		return nil, fmt.Errorf("pathid: empty path key")
	}
	parts := strings.Split(s, "-")
	// Split yields at most one part per input byte, so the allocation is
	// bounded by len(s).
	p := make(PathID, len(parts))
	for i, part := range parts {
		if part != "0" && strings.HasPrefix(part, "0") {
			return nil, fmt.Errorf("pathid: non-canonical AS number %q in key %q", part, s)
		}
		v, err := strconv.ParseUint(part, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("pathid: bad AS number %q in key %q", part, s)
		}
		p[i] = ASN(v)
	}
	return p, nil
}

// Equal reports whether two path identifiers are identical.
func (p PathID) Equal(q PathID) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Postfix returns the n domains nearest to the measuring router (the last
// n elements). If n >= len(p), it returns p itself. Aggregating a set of
// paths at depth n replaces each with its Postfix(n).
func (p PathID) Postfix(n int) PathID {
	if n >= len(p) {
		return p
	}
	if n <= 0 {
		return PathID{}
	}
	return p[len(p)-n:]
}

// SharedPostfix returns the number of trailing domains p and q share; this
// is the tree depth at which the two paths merge on their way to the
// router.
func (p PathID) SharedPostfix(q PathID) int {
	n := 0
	for n < len(p) && n < len(q) && p[len(p)-1-n] == q[len(q)-1-n] {
		n++
	}
	return n
}

// Node is one domain in a router's traffic tree. The root represents the
// measuring router's own domain; leaves are origin domains of active paths.
// Exported measurement fields are maintained by the FLoc core.
type Node struct {
	AS       ASN
	Parent   *Node
	Children map[ASN]*Node

	// Conformance is the node's path-conformance measure E_Ri in [0, 1]
	// (Eq. IV.6), meaningful on leaves; inner nodes hold derived values.
	Conformance float64
	// Flows is the number of active flows whose paths traverse this node.
	Flows int
	// Attack marks the node as part of the attack tree T^A (leaf
	// conformance below the threshold E_th).
	Attack bool
	// AggregatedAt is non-nil when this leaf's path has been aggregated
	// into the identifier rooted at that ancestor node.
	AggregatedAt *Node
}

// Depth returns the number of edges from the node to the root.
func (n *Node) Depth() int {
	d := 0
	for p := n.Parent; p != nil; p = p.Parent {
		d++
	}
	return d
}

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// Path returns the PathID from this node's subtree origin-side end...
// Specifically, it reconstructs the identifier of the (possibly aggregated)
// path that terminates at the root: the node's AS first if it is a leaf,
// then each ancestor's AS up to (but excluding) the root.
func (n *Node) Path() PathID {
	var rev []ASN
	for cur := n; cur != nil && cur.Parent != nil; cur = cur.Parent {
		rev = append(rev, cur.AS)
	}
	return PathID(rev)
}

// Leaves returns all leaves of the subtree rooted at n, in deterministic
// (AS-sorted) order.
func (n *Node) Leaves() []*Node {
	var out []*Node
	n.walk(func(m *Node) {
		if m.IsLeaf() {
			out = append(out, m)
		}
	})
	return out
}

// walk visits the subtree in depth-first, AS-sorted order.
func (n *Node) walk(visit func(*Node)) {
	visit(n)
	if len(n.Children) == 0 {
		return
	}
	asns := make([]ASN, 0, len(n.Children))
	for as := range n.Children {
		asns = append(asns, as)
	}
	sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })
	for _, as := range asns {
		n.Children[as].walk(visit)
	}
}

// MeanLeafConformance returns the average Conformance of the subtree's
// leaves — the aggregation cost C^A(R_i) of paper Eq. (IV.7) — and the
// number of leaves. It returns (0, 0) for a childless inner node.
//
// floc:eq IV.7
func (n *Node) MeanLeafConformance() (mean float64, leaves int) {
	ls := n.Leaves()
	if len(ls) == 0 {
		return 0, 0
	}
	sum := 0.0
	for _, l := range ls {
		sum += l.Conformance
	}
	return sum / float64(len(ls)), len(ls)
}

// Tree is a router's traffic tree T_R0 over the path identifiers of its
// active flows. The zero value is not usable; call NewTree.
type Tree struct {
	root   *Node
	leaves map[string]*Node // PathID key -> leaf
}

// NewTree returns an empty traffic tree whose root represents the
// measuring router's domain.
func NewTree(rootAS ASN) *Tree {
	return &Tree{
		root:   &Node{AS: rootAS, Children: map[ASN]*Node{}},
		leaves: map[string]*Node{},
	}
}

// Root returns the tree root.
func (t *Tree) Root() *Node { return t.root }

// Insert adds a path identifier to the tree (idempotently) and returns its
// leaf node. Paths are inserted router-side first: the last element of the
// PathID becomes a child of the root.
func (t *Tree) Insert(p PathID) (*Node, error) {
	if len(p) == 0 {
		return nil, fmt.Errorf("pathid: cannot insert empty path")
	}
	if leaf, ok := t.leaves[p.Key()]; ok {
		return leaf, nil
	}
	cur := t.root
	for i := len(p) - 1; i >= 0; i-- {
		as := p[i]
		next, ok := cur.Children[as]
		if !ok {
			next = &Node{AS: as, Parent: cur, Children: map[ASN]*Node{}}
			cur.Children[as] = next
		}
		cur = next
	}
	t.leaves[p.Key()] = cur
	return cur, nil
}

// Leaf returns the leaf node for a path identifier, or nil if absent.
func (t *Tree) Leaf(p PathID) *Node { return t.leaves[p.Key()] }

// Leaves returns all leaves in deterministic order. A childless root is
// not a leaf: an empty tree has no paths.
func (t *Tree) Leaves() []*Node {
	if t.root.IsLeaf() {
		return nil
	}
	return t.root.Leaves()
}

// NumLeaves returns the number of distinct inserted paths.
func (t *Tree) NumLeaves() int { return len(t.leaves) }

// InnerNodes returns all non-root, non-leaf nodes in deterministic order —
// the aggregation candidate set C of Algorithm 1.
func (t *Tree) InnerNodes() []*Node {
	var out []*Node
	t.root.walk(func(m *Node) {
		if m != t.root && !m.IsLeaf() {
			out = append(out, m)
		}
	})
	return out
}

// Remove deletes a path's leaf and prunes now-empty ancestors.
func (t *Tree) Remove(p PathID) {
	leaf, ok := t.leaves[p.Key()]
	if !ok {
		return
	}
	delete(t.leaves, p.Key())
	cur := leaf
	for cur != nil && cur != t.root && cur.IsLeaf() {
		parent := cur.Parent
		if parent != nil {
			delete(parent.Children, cur.AS)
		}
		cur = parent
	}
}
