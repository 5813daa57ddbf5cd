// Package ledger is FLoc's forensic evidence layer. The router's typed
// event stream is ultimately an accusation — "domain X is contaminated,
// these flows are attack flows" — and an accusation is only as good as
// the evidence chain behind it. This package seals the event stream
// into tamper-evident storage: a Sealer, attached as the run's event
// sink (flocd -ledger, flocsim -ledger), batches events into segments
// at control-run boundaries, hashes each segment's canonical NDJSON
// lines into a Merkle tree, and chains the segment roots into a compact
// append-only ledger file. Bulk event bytes go to numbered NDJSON files
// that rotate at 8 MiB, so the full history lives on disk, not in
// memory.
//
// Verification (cmd/floctrace) recomputes every segment root from the
// raw stored bytes, checks the hash chain across segment records, and
// decodes every sealed line — so a flipped byte, a reordered pair of
// events, a truncated tail, or a line that is no event is detected and
// named. Replay then folds the verified events through the same
// reconstruction the replay-equals-snapshot test uses, turning that
// test into a forensic tool: "this Snapshot really is what these events
// produce." The tree is RFC 6962's, so a segment root also commits to
// each event's position; the verifier needs only the root.
package ledger

import "crypto/sha256"

// HashSize is the byte length of every hash in the ledger (SHA-256).
const HashSize = sha256.Size

// Hash is one ledger hash value.
type Hash = [HashSize]byte

// Leaf and interior nodes are domain-separated (RFC 6962 style) so an
// interior node can never be replayed as a leaf: without the prefix,
// an attacker who controls leaf content could splice a subtree in as
// a single "event" with the same root.
const (
	leafPrefix = 0x00
	nodePrefix = 0x01
)

// LeafHash hashes one canonical event line (without its trailing
// newline) as a Merkle leaf.
func LeafHash(line []byte) Hash {
	var buf [1]byte
	buf[0] = leafPrefix
	h := sha256.New()
	h.Write(buf[:])
	h.Write(line)
	var out Hash
	h.Sum(out[:0])
	return out
}

// nodeHash combines two child hashes into their parent.
func nodeHash(left, right Hash) Hash {
	var buf [1 + 2*HashSize]byte
	buf[0] = nodePrefix
	copy(buf[1:], left[:])
	copy(buf[1+HashSize:], right[:])
	return sha256.Sum256(buf[:])
}

// splitPoint returns the largest power of two strictly less than n
// (n >= 2): the left-subtree width of an RFC 6962 tree over n leaves.
func splitPoint(n int) int {
	k := 1
	for k*2 < n {
		k *= 2
	}
	return k
}

// RootOf computes the Merkle root over the leaf hashes in order. The
// empty tree hashes to the hash of the empty string under the leaf
// prefix, so "no events" still has a well-defined commitment.
func RootOf(leaves []Hash) Hash {
	switch len(leaves) {
	case 0:
		return LeafHash(nil)
	case 1:
		return leaves[0]
	}
	k := splitPoint(len(leaves))
	return nodeHash(RootOf(leaves[:k]), RootOf(leaves[k:]))
}
