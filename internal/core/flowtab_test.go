package core

import (
	"fmt"
	"testing"

	"floc/internal/rng"
)

// flowHasher maps a test key to the hash the table is probed with. The
// router's hash is a pure function of the key; so are these, but they are
// chosen to be as bad as a 64-bit hash can be.
type flowHasher struct {
	name string
	hash func(k flowKey) uint64
}

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

var flowHashers = []flowHasher{
	// Well mixed: short probe sequences.
	{"uniform", func(k flowKey) uint64 { return mix64(uint64(k.src)<<32 | uint64(k.id)) }},
	// Every home slot is one of the last three of the table, whatever its
	// size: all clusters wrap around the table end.
	{"wrap", func(k flowKey) uint64 {
		return mix64(uint64(k.src)<<32|uint64(k.id))<<16 | (0xffff - uint64(k.id%3))
	}},
	// Four home slots: long clusters that interleave.
	{"clustered", func(k flowKey) uint64 {
		return mix64(uint64(k.src)<<32|uint64(k.id))<<8 | uint64(k.id%4)*5
	}},
	// One hash for every key: one cluster, and only the exact key compare
	// tells flows apart.
	{"constant", func(flowKey) uint64 { return 0xfeedfacefeedface }},
}

// checkFlowTable verifies the table against the model and its own layout
// rules: every modelled flow is found with its state intact, nothing else
// is, slots and slab agree one to one, and the size/capacity rules hold.
func checkFlowTable(t *testing.T, tab *flowTable, model map[flowKey]flowState, h flowHasher, what string) {
	t.Helper()
	if tab.len() != len(model) {
		t.Fatalf("%s: table has %d flows, model %d", what, tab.len(), len(model))
	}
	for k, want := range model {
		fs := tab.get(h.hash(k), k)
		if fs == nil {
			t.Fatalf("%s: flow %+v lost", what, k)
		}
		if *fs != want {
			t.Fatalf("%s: flow %+v state %+v, model %+v", what, k, *fs, want)
		}
	}
	if len(tab.slots) == 0 {
		return
	}
	if n := len(tab.slots); n&(n-1) != 0 || n < flowTableMinSize {
		t.Fatalf("%s: %d slots is not a power of two >= %d", what, n, flowTableMinSize)
	}
	if cap(tab.states) != flowCapacity(len(tab.slots)) {
		t.Fatalf("%s: slab capacity %d with %d slots", what, cap(tab.states), len(tab.slots))
	}
	seen := make([]bool, len(tab.states))
	used := 0
	for _, s := range tab.slots {
		if s.idx == 0 {
			continue
		}
		used++
		if int(s.idx) > len(tab.states) || seen[s.idx-1] {
			t.Fatalf("%s: slot points at slab index %d (len %d, seen %v)", what, s.idx, len(tab.states), int(s.idx) <= len(tab.states))
		}
		seen[s.idx-1] = true
		if st := tab.states[s.idx-1]; s.home != uint32(st.hash) || st.hash != h.hash(s.key) {
			t.Fatalf("%s: slot %+v does not match its state's hash %#x", what, s, st.hash)
		}
	}
	if used != len(tab.states) {
		t.Fatalf("%s: %d slots in use for %d states", what, used, len(tab.states))
	}
}

// TestFlowTableAgainstModel drives randomised put/get/expire sequences
// through a flowTable and a map[flowKey]flowState side by side, checking
// after every operation. The hashers force the hard layouts: clusters
// that wrap the table end, interleaved clusters, growth in the middle of
// a cluster, and total collision.
func TestFlowTableAgainstModel(t *testing.T) {
	for _, h := range flowHashers {
		for _, seed := range []uint64{1, 2, 3} {
			h, seed := h, seed
			t.Run(fmt.Sprintf("%s/%d", h.name, seed), func(t *testing.T) {
				runFlowTableModel(t, h, seed)
			})
		}
	}
}

func runFlowTableModel(t *testing.T, h flowHasher, seed uint64) {
	src := rng.New(seed)
	var tab flowTable
	model := map[flowKey]flowState{}
	randKey := func() flowKey {
		return flowKey{src: uint32(src.Intn(4)), id: uint32(src.Intn(96))}
	}
	// A state does not know its key; the test stamps each with a unique
	// synAt so keep can tell which flow it was handed.
	byID := map[float64]flowKey{}
	stamp := 0.0
	for op := 0; op < 3000; op++ {
		what := fmt.Sprintf("op %d", op)
		switch c := src.Intn(100); {
		case c < 55: // put if absent, else mutate through get
			k := randKey()
			stamp++
			if _, ok := model[k]; ok {
				fs := tab.get(h.hash(k), k)
				if fs == nil {
					t.Fatalf("%s: get(%+v) = nil, model has it", what, k)
				}
				fs.lastSeen = stamp
				m := model[k]
				m.lastSeen = stamp
				model[k] = m
			} else {
				if tab.get(h.hash(k), k) != nil {
					t.Fatalf("%s: get(%+v) found a flow the model lacks", what, k)
				}
				fs := tab.put(h.hash(k), k)
				if want := (flowState{hash: h.hash(k)}); *fs != want {
					t.Fatalf("%s: put returned %+v, want zeroed %+v", what, *fs, want)
				}
				fs.lastSeen, fs.synAt = stamp, float64(op)
				byID[fs.synAt] = k
				model[k] = *fs
			}
		case c < 85: // get, present or absent
			k := randKey()
			fs := tab.get(h.hash(k), k)
			if m, ok := model[k]; ok != (fs != nil) || (ok && *fs != m) {
				t.Fatalf("%s: get(%+v) = %v, model has=%v", what, k, fs, ok)
			}
		default: // expire a random share: none, some, or all
			share := []int{0, 5, 30, 70, 100}[src.Intn(5)]
			visits := map[flowKey]int{}
			before := len(model)
			expired := tab.expire(func(fs *flowState) bool {
				k := byID[fs.synAt]
				visits[k]++
				if m, ok := model[k]; !ok || m != *fs {
					t.Fatalf("%s: keep saw %+v, model %+v (present=%v)", what, *fs, m, ok)
				}
				// The verdict must be a function of the flow alone: the
				// model below re-derives it.
				if int(mix64(fs.hash^uint64(fs.lastSeen))%100) < share {
					return false
				}
				fs.admitted++ // keep may update survivors in place
				return true
			})
			if len(visits) != before {
				t.Fatalf("%s: keep visited %d flows, %d were live", what, len(visits), before)
			}
			for k, n := range visits {
				if n != 1 {
					t.Fatalf("%s: keep called %d times for %+v", what, n, k)
				}
			}
			for k, m := range model {
				if int(mix64(m.hash^uint64(m.lastSeen))%100) < share {
					delete(model, k)
				} else {
					m.admitted++
					model[k] = m
				}
			}
			if expired != before-len(model) {
				t.Fatalf("%s: expire reported %d, model lost %d", what, expired, before-len(model))
			}
			// The table only ever shrinks here, and must when nearly empty.
			if size := len(tab.slots); size > flowTableMinSize && tab.len()*8 < size {
				t.Fatalf("%s: %d flows left in %d slots: not shrunk", what, tab.len(), size)
			}
		}
		checkFlowTable(t, &tab, model, h, what)
	}
}

// TestFlowTableGrowShrinkCycle walks one table through the sizes a busy
// path sees: grow while every insert lands in one wrapping cluster, expire
// everything, refill, and expire down to a single flow.
func TestFlowTableGrowShrinkCycle(t *testing.T) {
	h := flowHashers[1] // wrap
	var tab flowTable
	model := map[flowKey]flowState{}
	fill := func(n int) {
		for i := 0; len(model) < n; i++ {
			k := flowKey{src: 9, id: uint32(i)}
			if _, ok := model[k]; ok {
				continue
			}
			model[k] = *tab.put(h.hash(k), k)
			checkFlowTable(t, &tab, model, h, fmt.Sprintf("fill %d", i))
		}
	}
	fill(200)
	if len(tab.slots) != 512 {
		t.Fatalf("200 flows sit in %d slots, want 512", len(tab.slots))
	}
	if n := tab.expire(func(*flowState) bool { return false }); n != 200 || tab.len() != 0 {
		t.Fatalf("all-expire removed %d, %d left", n, tab.len())
	}
	model = map[flowKey]flowState{}
	checkFlowTable(t, &tab, model, h, "after all-expire")
	if len(tab.slots) != flowTableMinSize {
		t.Fatalf("empty table keeps %d slots, want %d", len(tab.slots), flowTableMinSize)
	}
	fill(50)
	survivor := flowKey{src: 9, id: 17}
	tab.get(h.hash(survivor), survivor).escalation = 3
	tab.expire(func(fs *flowState) bool { return fs.escalation == 3 })
	model = map[flowKey]flowState{survivor: {hash: h.hash(survivor), escalation: 3}}
	checkFlowTable(t, &tab, model, h, "after expire-to-one")
	// No expiry, no rebuild: the slab and slots stay where they are.
	slots, states := &tab.slots[0], &tab.states[0]
	if n := tab.expire(func(*flowState) bool { return true }); n != 0 {
		t.Fatalf("keep-all expired %d", n)
	}
	if slots != &tab.slots[0] || states != &tab.states[0] {
		t.Fatal("an expiry that removed nothing reallocated the table")
	}
}
