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
// traffic returns.
const (
	handleIndexBits = 20
	handleIndexMask = 1<<handleIndexBits - 1
	// maxPathHandles caps the dense state array. Paths beyond it (a
	// path-churn attack regime) fall into an overflow map with the old
	// delete-on-expiry semantics, bounding memory.
	maxPathHandles = handleIndexMask
)

// routerTagCounter issues a distinct tag per pathTable so a handle minted
// by one router is rejected — not misresolved — by every other.
var routerTagCounter atomic.Uint32

// pathTable is the router's origin-path index: a dense handle-indexed
// state array for the hot path plus a key→handle map and overflow map for
// the cold path (first packet, control plane, snapshots).
type pathTable struct {
	tag      uint32                // pre-shifted router tag, ORed into every handle
	byKey    map[string]uint32     // key → handle; bindings are never removed
	states   []*pathState          // 0-based by handle index; nil = expired or not yet created
	overflow map[string]*pathState // beyond maxPathHandles: plain map semantics
	live     int
}

func newPathTable() *pathTable {
	return &pathTable{
		tag:   routerTagCounter.Add(1) << handleIndexBits,
		byKey: map[string]uint32{},
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
// creating any path state. Returns 0 when the dense space is exhausted.
// Handle binding happens once per path, not per packet.
func (t *pathTable) intern(key string) uint32 {
	if h, ok := t.byKey[key]; ok {
		return h
	}
	if len(t.states) >= maxPathHandles {
		return 0
	}
	t.states = append(t.states, nil)
	h := t.tag | uint32(len(t.states))
	t.byKey[key] = h
	return h
}

// lookup returns the live state for key, or nil.
// First-packet and control-plane lookups only.
func (t *pathTable) lookup(key string) *pathState {
	if h, ok := t.byKey[key]; ok {
		return t.states[int(h&handleIndexMask)-1]
	}
	return t.overflow[key]
}

// put stores a freshly created state under key, assigning its handle.
// Path-state creation is a first-packet event.
func (t *pathTable) put(key string, ps *pathState) {
	if h := t.intern(key); h != 0 {
		ps.handle = h
		t.states[int(h&handleIndexMask)-1] = ps
	} else {
		if t.overflow == nil {
			t.overflow = map[string]*pathState{}
		}
		t.overflow[key] = ps
	}
	t.live++
}

// remove expires a state. Dense entries keep their key→handle binding
// (see the package comment above); overflow entries are forgotten.
// Expiry runs in the control loop.
func (t *pathTable) remove(ps *pathState) {
	if ps.handle != 0 {
		t.states[int(ps.handle&handleIndexMask)-1] = nil
	} else {
		delete(t.overflow, ps.key)
	}
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
	for _, ps := range t.overflow {
		fn(ps)
	}
}
