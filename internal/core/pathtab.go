package core

import "sync/atomic"

// Path handles give the steady-state admission path an integer identity
// for origin paths, so the per-packet lookup is an array index instead of
// a string-keyed map probe. A handle packs a per-router tag into the high
// bits and a 1-based dense index into the low handleIndexBits; zero means
// "no handle". Handles are issued once per path (Router.InternPath or the
// first packet's originMiss) and never recycled: an expired path keeps
// its key→handle binding so a producer-cached handle can never silently
// alias a different path, it just re-creates state at the same index when
// traffic returns. Every origin path holds a handle, so the handle space
// bounds origin-path state: a path that finds the table full is accounted
// under the unmarked identifier [0], whose handle the table keeps free.
const (
	handleIndexBits = 20
	handleIndexMask = 1<<handleIndexBits - 1
	maxPathHandles  = handleIndexMask
	unmarkedKey     = "0" // pathid.New(0).Key(): unmarked packets and paths past a full table
)

// routerTagCounter issues a distinct tag per pathTable so a handle minted
// by one router is rejected — not misresolved — by every other.
var routerTagCounter atomic.Uint32

// pathTable is the router's origin-path index: a dense handle-indexed
// state array for the hot path plus a key→handle map for the cold path
// (first packet, control plane, snapshots).
type pathTable struct {
	tag    uint32            // pre-shifted router tag, ORed into every handle
	byKey  map[string]uint32 // key → handle; bindings are never removed
	states []*pathState      // 0-based by handle index; nil = expired or not yet created
	cap    int               // maxPathHandles; lowered only by the capacity tests
	live   int
}

func newPathTable() *pathTable {
	return &pathTable{
		tag:   routerTagCounter.Add(1) << handleIndexBits,
		byKey: map[string]uint32{},
		cap:   maxPathHandles,
	}
}

// HandleTag returns the router tag a handle carries in its high bits, or
// 0 for a value no router issues (no index). Two handles minted by one
// router share a tag; a sharded dataplane routes on it.
func HandleTag(h uint32) uint32 {
	if h&handleIndexMask == 0 {
		return 0
	}
	return h &^ uint32(handleIndexMask)
}

// HandleTag returns the tag of every handle this router issues.
func (r *Router) HandleTag() uint32 { return r.origins.tag }

// byHandle resolves a handle to its live path state, or nil for foreign,
// out-of-range, or expired handles (all of which the caller treats as a
// cache miss).
func (t *pathTable) byHandle(h uint32) *pathState {
	if h&^uint32(handleIndexMask) != t.tag {
		return nil
	}
	i := int(h&handleIndexMask) - 1
	if i < 0 || i >= len(t.states) {
		return nil
	}
	return t.states[i]
}

// intern binds key to a handle (issuing one on first sight) without
// creating any path state. Returns 0 when the table is full; the last
// handle is kept for unmarkedKey.
// Handle binding happens once per path, not per packet.
func (t *pathTable) intern(key string) uint32 {
	if h, ok := t.byKey[key]; ok {
		return h
	}
	if len(t.states) >= t.cap-1 && key != unmarkedKey {
		return 0
	}
	t.states = append(t.states, nil)
	h := t.tag | uint32(len(t.states))
	t.byKey[key] = h
	return h
}

// lookup returns the live state for key, or nil.
// First-packet and control-plane lookups only.
func (t *pathTable) lookup(key string) *pathState { return t.byHandle(t.byKey[key]) }

// put stores a freshly created state at its handle.
// Path-state creation is a first-packet event.
func (t *pathTable) put(ps *pathState) {
	t.states[int(ps.handle&handleIndexMask)-1] = ps
	t.live++
}

// remove expires a state; its key keeps its handle (see the package
// comment above). Expiry runs in the control loop.
func (t *pathTable) remove(ps *pathState) {
	t.states[int(ps.handle&handleIndexMask)-1] = nil
	t.live--
}

// size returns the number of live states.
func (t *pathTable) size() int { return t.live }

// each visits every live state in unspecified order; callers needing
// determinism use Router.sortedPaths or sort what they collect. Removing
// the currently visited state from within fn is allowed.
func (t *pathTable) each(fn func(ps *pathState)) {
	for _, ps := range t.states {
		if ps != nil {
			fn(ps)
		}
	}
}
