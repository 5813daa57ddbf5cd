package core

import "floc/internal/netsim"

// This file holds the open-addressed per-flow state tables that replace
// the router's map[flowKey]*flowState and map[netsim.FlowID]uint32. Both
// are power-of-two tables with linear probing keyed by the 64-bit
// dropfilter.FlowHash the admission path computes anyway, so the Go map
// hasher never runs on the hot path. Neither table has tombstones: the
// flow table deletes by backward shift (expire, at control-run
// boundaries), the slot table never deletes (capability slots live for
// the run, as the map they replace did).

// flowSlot is one 16-byte probe slot of a flowTable: the flow's exact key
// (compared on every probe, so hash collisions stay correct), the 1-based
// index of its state in the slab (0 marks the slot empty), and the low
// half of its hash, from which the slot's home position is re-derived
// when the cluster shifts or the table is resized.
type flowSlot struct {
	key  flowKey
	idx  uint32
	home uint32
}

const flowTableMinSize = 8

// flowCapacity is the load limit: a table of slots slots holds at most
// 3/4 as many flows.
func flowCapacity(slots int) int { return slots * 3 / 4 }

// flowTable maps flow accounting identities to their state. The states
// live by value in one dense slab per path — states[:n] are exactly the
// live flows, so the control loop walks them as a plain slice — and the
// probe table indexes into it. The slab's capacity is the probe table's
// load limit, so one check grows both.
type flowTable struct {
	slots  []flowSlot  // power-of-two length, or nil before first put
	states []flowState // live flows, dense; cap == flowCapacity(len(slots))
}

// home returns the position of hash's home slot, where every probe for it
// starts. The table must have slots, which a table with a live flow has.
func (t *flowTable) home(hash uint64) uint64 { return hash & uint64(len(t.slots)-1) }

// get returns the flow's state, or nil. The pointer is into the slab: it
// is valid until the next put or expire on this table. A probe reads
// slots only; the slab line is first touched by the caller.
func (t *flowTable) get(hash uint64, key flowKey) *flowState {
	if len(t.states) == 0 {
		return nil
	}
	mask := uint64(len(t.slots) - 1)
	for i := t.home(hash); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.idx == 0 {
			return nil
		}
		if s.key == key {
			return &t.states[s.idx-1]
		}
	}
}

// put inserts a new flow with zeroed state and returns it. The caller
// guarantees key is absent.
// Flow-state creation is a first-packet event.
func (t *flowTable) put(hash uint64, key flowKey) *flowState {
	if len(t.states) == cap(t.states) {
		size := len(t.slots) * 2
		if size < flowTableMinSize {
			size = flowTableMinSize
		}
		t.resize(size)
	}
	t.states = append(t.states, flowState{hash: hash})
	t.link(flowSlot{key: key, idx: uint32(len(t.states)), home: uint32(hash)})
	return &t.states[len(t.states)-1]
}

// link places s in the first empty slot of its probe sequence. The load
// limit guarantees one exists.
func (t *flowTable) link(s flowSlot) {
	mask := uint64(len(t.slots) - 1)
	for i := uint64(s.home) & mask; ; i = (i + 1) & mask {
		if t.slots[i].idx == 0 {
			t.slots[i] = s
			return
		}
	}
}

// slotOf returns the position of the slot that points at slab index idx
// (1-based), which must be live.
func (t *flowTable) slotOf(idx uint32) uint64 {
	mask := uint64(len(t.slots) - 1)
	for i := t.states[idx-1].hash & mask; ; i = (i + 1) & mask {
		if t.slots[i].idx == idx {
			return i
		}
	}
}

// resize moves the table to size slots: the slab is copied as it stands
// and every slot is re-linked from its home position.
func (t *flowTable) resize(size int) {
	states := make([]flowState, len(t.states), flowCapacity(size))
	copy(states, t.states)
	t.states = states
	old := t.slots
	t.slots = make([]flowSlot, size)
	for _, s := range old {
		if s.idx != 0 {
			t.link(s)
		}
	}
}

// len returns the number of live flows.
func (t *flowTable) len() int { return len(t.states) }

// all returns the live flows for in-place iteration (deterministic order
// for a given operation history; callers must not depend on any
// particular order). The slice is valid until the next put or expire.
func (t *flowTable) all() []flowState { return t.states }

// remove deletes the flow at slab position i: its slot is closed by
// backward shift, so every remaining probe sequence stays gap-free without
// tombstones, and the slab's last state moves into the hole.
func (t *flowTable) remove(i int) {
	mask := uint64(len(t.slots) - 1)
	hole := t.slotOf(uint32(i + 1))
	for j := (hole + 1) & mask; t.slots[j].idx != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole only if its home slot is not
		// cyclically inside (hole, j].
		home := uint64(t.slots[j].home) & mask
		if (j-home)&mask >= (j-hole)&mask {
			t.slots[hole] = t.slots[j]
			hole = j
		}
	}
	t.slots[hole] = flowSlot{}
	last := len(t.states) - 1
	if i != last {
		t.slots[t.slotOf(uint32(last+1))].idx = uint32(i + 1)
		t.states[i] = t.states[last]
	}
	t.states = t.states[:last]
}

// expire calls keep exactly once per live flow and deletes the rejected
// ones in place, returning how many it deleted. This is the table's only
// deletion point, at control-run boundaries. The table is rebuilt only to
// shrink, when occupancy falls below 1/8.
// Flow expiry runs in the control loop.
func (t *flowTable) expire(keep func(fs *flowState) bool) (expired int) {
	for i := 0; i < len(t.states); {
		if keep(&t.states[i]) {
			i++
			continue
		}
		t.remove(i) // the state now at i has not been visited yet
		expired++
	}
	if expired == 0 {
		return 0
	}
	size := len(t.slots)
	for size > flowTableMinSize && len(t.states)*8 < size {
		size /= 2
	}
	if size != len(t.slots) {
		t.resize(size)
	}
	return expired
}

// slotEntry is one capability-slot cache slot; slotPlus1 == 0 marks it
// empty. salted caches the pre-salted accounting hash so the per-packet
// path computes exactly one FlowHash.
type slotEntry struct {
	hash      uint64
	salted    uint64
	id        netsim.FlowID
	slotPlus1 uint32
}

// slotTable maps flow endpoints to their capability fan-out slot and
// pre-salted accounting hash. Entries are never removed, matching the map
// it replaces.
type slotTable struct {
	entries []slotEntry
	n       int
}

// get returns the flow's cached slot and salted hash.
func (t *slotTable) get(hash uint64, id netsim.FlowID) (slot uint32, salted uint64, ok bool) {
	if t.n == 0 {
		return 0, 0, false
	}
	mask := uint64(len(t.entries) - 1)
	for i := hash & mask; ; i = (i + 1) & mask {
		e := &t.entries[i]
		if e.slotPlus1 == 0 {
			return 0, 0, false
		}
		if e.hash == hash && e.id == id {
			return e.slotPlus1 - 1, e.salted, true
		}
	}
}

// put caches a freshly issued slot. The caller guarantees id is absent.
// Capability issue happens once per flow, not per packet.
func (t *slotTable) put(hash uint64, id netsim.FlowID, slot uint32, salted uint64) {
	if len(t.entries) == 0 {
		t.entries = make([]slotEntry, flowTableMinSize)
	} else if (t.n+1)*4 > len(t.entries)*3 {
		old := t.entries
		t.entries = make([]slotEntry, len(old)*2)
		for i := range old {
			if old[i].slotPlus1 != 0 {
				t.reinsert(old[i])
			}
		}
	}
	t.reinsert(slotEntry{hash: hash, salted: salted, id: id, slotPlus1: slot + 1})
	t.n++
}

// reinsert places an entry in the first empty probe slot.
func (t *slotTable) reinsert(e slotEntry) {
	mask := uint64(len(t.entries) - 1)
	for i := e.hash & mask; ; i = (i + 1) & mask {
		if t.entries[i].slotPlus1 == 0 {
			t.entries[i] = e
			return
		}
	}
}
