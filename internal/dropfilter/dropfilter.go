// Package dropfilter implements FLoc's scalable attack-flow accounting
// structure (paper Section V-B): a counting-Bloom-style filter that records
// only *dropped* packets, so routers can identify and preferentially drop
// attack flows without keeping per-flow state for the (much larger) set of
// all flows.
//
// Each record holds three fields per the paper:
//
//	t_s — the number of congestion epochs since the record was created
//	      (saturating; "sequence number"),
//	t_l — the last-update time, quantized to ticks of granularity t_base,
//	d   — the number of *extra* packet drops beyond the one-per-epoch a
//	      legitimate TCP flow experiences.
//
// A legitimate flow's occasional drop decays away (d decreases by one per
// elapsed congestion epoch) and the record self-clears; an attack flow's
// drops accumulate, and d/t_s approximates its excess send-rate factor.
// The preferential drop ratio of Eq. (V.1) is derived from (t_s, d).
package dropfilter

import (
	"fmt"
	"math"

	"floc/internal/invariant"
)

// Config parameterizes a Filter.
type Config struct {
	// Arrays is m, the number of hash arrays (paper example: 4).
	Arrays int
	// Bits is b: each array has 2^b record slots (paper example: 24;
	// simulations default to 16 to keep memory modest).
	Bits int
	// TickSeconds is t_base, the time quantization granularity
	// (paper example: 10 ms).
	TickSeconds float64
	// TSMax is the saturation value of t_s (paper: 4 bits -> 15).
	TSMax uint32
	// DMax is the saturation value of d. The paper's 2-bits-per-epoch
	// budget with t_s up to 15 bounds measurable excess at 2^k * t_s;
	// DMax plays the same role as a single cap.
	DMax uint32
}

// DefaultConfig returns the configuration used by the simulations.
func DefaultConfig() Config {
	return Config{Arrays: 4, Bits: 16, TickSeconds: 0.01, TSMax: 15, DMax: 63}
}

// record is one filter slot. A zero record is empty.
//
// The encoding is 8 bytes: t_l keeps full tick resolution, while t_s and
// d are 16-bit saturating counters (their configured caps — paper: 15 and
// 63 — fit with room to spare; New rejects caps beyond 65535). With m=4
// arrays a flow's whole record block is 32 contiguous bytes.
type record struct {
	tl uint32 // last update, in ticks
	ts uint16 // congestion epochs since creation (saturating at TSMax)
	d  uint16 // extra drops (saturating at DMax)
}

// Filter is the drop-record filter. It is not safe for concurrent use.
//
// Layout: the m per-array records of slot s are stored contiguously as a
// block recs[s*m : s*m+m] (a blocked counting Bloom filter, à la Putze et
// al.). One RecordDrop or Query therefore touches at most two cache lines
// instead of m scattered ones. The trade-off is the standard blocked-Bloom
// one — two flows that collide in the block index collide in every array —
// which slightly raises the false-positive rate at equal table size; the
// conservative min-read and decay semantics are unchanged.
type Filter struct {
	cfg  Config
	mask uint64
	recs []record // blocked: slot s, array i at recs[s*Arrays+i]
	live int      // number of non-empty records (approximate, for stats)

	// Cumulative operation counters, for telemetry.
	recordOps int64
	queryOps  int64
}

// New creates a Filter. It validates the configuration.
func New(cfg Config) (*Filter, error) {
	if cfg.Arrays < 1 {
		return nil, fmt.Errorf("dropfilter: Arrays %d < 1", cfg.Arrays)
	}
	if cfg.Bits < 1 || cfg.Bits > 30 {
		return nil, fmt.Errorf("dropfilter: Bits %d out of [1,30]", cfg.Bits)
	}
	if cfg.TickSeconds <= 0 {
		return nil, fmt.Errorf("dropfilter: non-positive tick %v", cfg.TickSeconds)
	}
	if cfg.TSMax < 1 || cfg.DMax < 1 {
		return nil, fmt.Errorf("dropfilter: TSMax/DMax must be >= 1")
	}
	if cfg.TSMax > 65535 || cfg.DMax > 65535 {
		return nil, fmt.Errorf("dropfilter: TSMax/DMax must fit 16 bits (<= 65535)")
	}
	size := 1 << cfg.Bits
	return &Filter{
		cfg:  cfg,
		mask: uint64(size - 1),
		recs: make([]record, size*cfg.Arrays),
	}, nil
}

// Config returns the filter's configuration.
func (f *Filter) Config() Config { return f.cfg }

// MemoryBytes returns the memory footprint of the record arrays, for the
// Section V-B sizing analysis.
func (f *Filter) MemoryBytes() int {
	const recordSize = 8 // uint32 + 2 * uint16
	return f.cfg.Arrays * (1 << f.cfg.Bits) * recordSize
}

// Live returns the number of currently non-empty records across all
// arrays (records that decayed to empty are counted out lazily, so this is
// an upper bound between operations).
func (f *Filter) Live() int { return f.live }

// FlowHash hashes a flow identifier (source, destination) to the 64-bit
// value the filter indexes with (FNV-1a).
func FlowHash(src, dst uint32) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, b := range [8]byte{
		byte(src >> 24), byte(src >> 16), byte(src >> 8), byte(src),
		byte(dst >> 24), byte(dst >> 16), byte(dst >> 8), byte(dst),
	} {
		h ^= uint64(b)
		h *= prime
	}
	return h
}

// blockBase returns the index into recs of flow h's record block: the m
// per-array records start here and are contiguous.
func (f *Filter) blockBase(h uint64) uint64 {
	return (h & f.mask) * uint64(f.cfg.Arrays)
}

// Peek reads both ends of flow h's record block — the memory a Query or
// RecordDrop for h starts from — and returns a fold of what it read. It
// writes nothing and counts nothing: callers use it to pull the block
// into cache ahead of the operation that needs it.
func (f *Filter) Peek(h uint64) uint64 {
	base := f.blockBase(h)
	return uint64(f.recs[base].tl) ^ uint64(f.recs[base+uint64(f.cfg.Arrays)-1].tl)
}

// arraySpan is the set of arrays a flow touches, as a value: start index,
// count, and modulus. It replaces a per-operation []int (RecordDrop and
// Query run per dropped packet, and a heap allocation each was the
// filter's entire steady-state garbage). Iterate with index(j), j in
// [0, n): the visiting order is identical to the slice it replaced —
// 0..m-1 when unrestricted, (start+j) mod m when restricted.
type arraySpan struct {
	start, n, m int
}

// index returns the j'th array of the span.
func (s arraySpan) index(j int) int {
	i := s.start + j
	if i >= s.m {
		i -= s.m
	}
	return i
}

// arraysFor returns which arrays a flow touches when restricted to k of m
// (probabilistic array selection, Section V-B.5). k <= 0 or k >= m means
// all arrays.
func (f *Filter) arraysFor(h uint64, k int) arraySpan {
	m := f.cfg.Arrays
	if k <= 0 || k >= m {
		return arraySpan{start: 0, n: m, m: m}
	}
	return arraySpan{start: int((h >> 17) % uint64(m)), n: k, m: m}
}

// Ticks quantizes a time in seconds to filter ticks.
func (f *Filter) Ticks(now float64) uint32 {
	if now <= 0 {
		return 0
	}
	return uint32(now / f.cfg.TickSeconds)
}

// decay applies the per-epoch aging of Section V-B.2 to a record in place:
// d decreases by one and t_s increases by one for every congestion epoch
// elapsed since t_l. If d reaches zero the record clears (a legitimate
// flow's normal drop is removed from the filter). epochTicks is the path's
// congestion epoch (W/2 * RTT) in ticks.
func (f *Filter) decay(r *record, nowTicks, epochTicks uint32) {
	if r.ts == 0 && r.d == 0 {
		return // empty
	}
	if epochTicks == 0 {
		epochTicks = 1
	}
	if nowTicks <= r.tl {
		return
	}
	epochs := (nowTicks - r.tl) / epochTicks
	if epochs == 0 {
		return
	}
	if epochs >= uint32(r.d) {
		// Record fully decayed: clear.
		if r.ts != 0 || r.d != 0 {
			f.live--
		}
		*r = record{}
		return
	}
	r.d -= uint16(epochs) // epochs < d <= 65535, so the cast is exact
	ts := uint32(r.ts) + epochs
	if ts > f.cfg.TSMax {
		ts = f.cfg.TSMax
	}
	r.ts = uint16(ts)
	r.tl += epochs * epochTicks
}

// RecordDrop records one dropped packet of flow h at time now (seconds),
// where epoch is the flow's path congestion epoch (W/2*RTT) in seconds.
// k restricts the update to k of the m arrays (<=0 for all). weight is the
// probabilistic-update weight (Section V-B.4): the caller samples drops
// with probability 1/weight and passes the weight here so expectations are
// preserved; use 1 for exact recording.
func (f *Filter) RecordDrop(h uint64, now, epoch float64, k int, weight uint32) {
	f.recordOps++
	if weight < 1 {
		weight = 1
	}
	nowTicks := f.Ticks(now)
	epochTicks := f.Ticks(epoch)
	if epochTicks == 0 {
		epochTicks = 1
	}
	base := f.blockBase(h)
	span := f.arraysFor(h, k)
	for j := 0; j < span.n; j++ {
		i := span.index(j)
		r := &f.recs[base+uint64(i)]
		f.decay(r, nowTicks, epochTicks)
		add := weight
		if r.ts == 0 && r.d == 0 {
			// Fresh record: created now, first epoch. The creating drop is
			// the one-per-epoch drop a legitimate flow is entitled to, so
			// it does not count toward d.
			r.ts = 1
			r.tl = nowTicks
			r.d = 0
			f.live++
			add = weight - 1
		}
		d := uint32(r.d) + add
		if d > f.cfg.DMax || d < uint32(r.d) {
			d = f.cfg.DMax
		}
		r.d = uint16(d) // d <= DMax <= 65535 by New's validation
		r.tl = nowTicks
		if invariant.Hot {
			// Saturation bounds of the Section V-B record encoding: t_s and
			// d must never exceed their field capacity, and a live record
			// always has ts >= 1 (the creation epoch).
			invariant.True("dropfilter.record.saturation",
				uint32(r.d) <= f.cfg.DMax && uint32(r.ts) <= f.cfg.TSMax && r.ts >= 1)
		}
	}
	if invariant.Hot {
		invariant.True("dropfilter.live", f.live >= 0 && f.live <= f.cfg.Arrays<<f.cfg.Bits)
	}
}

// State is a flow's aggregated drop record.
type State struct {
	// TS is t_s, congestion epochs since the record was created.
	TS uint32
	// D is d, the extra drops beyond one per epoch.
	D uint32
}

// Excess returns P_e, the flow's estimated excess send-rate factor
// (extra drops per congestion epoch).
//
// floc:eq V-B.2 (P_e = d/t_s)
func (s State) Excess() float64 {
	if s.TS == 0 {
		return 0
	}
	return float64(s.D) / float64(s.TS)
}

// PrefDropProb returns the preferential drop ratio of Eq. (V.1):
//
//	P_pd = d / (t_s + d)
//
// A flow with no extra drops is never preferentially dropped. For a flow
// sending alpha times its fair bandwidth, d grows to (alpha-1)*t_s, so
// P_pd -> 1 - 1/alpha and the flow's serviced rate alpha*(1-P_pd) is
// pinned at its fair share. This matches both numeric examples in the
// paper: t_s=16, d=1 gives P_e = 1/16 = 6.25% and P_pd = 1/17 = 5.88%;
// a 64x flow saturating d at 63 with t_s=1 gives P_pd = 63/64 = 0.984.
//
// floc:eq V.1 (P_pd = d/(t_s+d))
func (s State) PrefDropProb() float64 {
	if s.D == 0 {
		return 0
	}
	return float64(s.D) / (float64(s.TS) + float64(s.D))
}

// Query returns the flow's drop state at time now, applying decay
// read-consistently (without mutating the stored records) and taking the
// minimum d across the flow's arrays (the counting-Bloom conservative
// read). k must match the k used for RecordDrop for this flow's path.
func (f *Filter) Query(h uint64, now, epoch float64, k int) State {
	return f.QueryTicks(h, f.Ticks(now), f.Ticks(epoch), k)
}

// QueryTicks is Query with the time and the congestion epoch already in
// ticks (see Ticks), for callers that query many flows of one path at one
// instant and quantize once.
func (f *Filter) QueryTicks(h uint64, nowTicks, epochTicks uint32, k int) State {
	f.queryOps++
	if epochTicks == 0 {
		epochTicks = 1
	}
	best := State{TS: math.MaxUint32, D: math.MaxUint32}
	base := f.blockBase(h)
	span := f.arraysFor(h, k)
	for j := 0; j < span.n; j++ {
		i := span.index(j)
		r := f.recs[base+uint64(i)] // copy; decay without storing
		f.decayCopy(&r, nowTicks, epochTicks)
		if r.ts == 0 && r.d == 0 {
			return State{} // any empty array proves the flow is clean
		}
		if uint32(r.d) < best.D {
			best = State{TS: uint32(r.ts), D: uint32(r.d)}
		}
	}
	if best.D == math.MaxUint32 {
		return State{}
	}
	if invariant.Hot {
		// The conservative read must respect the same saturation bounds as
		// the stored records, and the derived preferential drop ratio
		// (Eq. V.1) must be a probability.
		invariant.True("dropfilter.query.saturation",
			best.D <= f.cfg.DMax && best.TS <= f.cfg.TSMax)
		invariant.Conformance01("dropfilter.prefdrop", best.PrefDropProb())
		invariant.NonNegative("dropfilter.excess", best.Excess())
	}
	return best
}

// decayCopy is decay without live-count bookkeeping, for query-time copies.
func (f *Filter) decayCopy(r *record, nowTicks, epochTicks uint32) {
	if r.ts == 0 && r.d == 0 {
		return
	}
	if nowTicks <= r.tl {
		return
	}
	epochs := (nowTicks - r.tl) / epochTicks
	if epochs == 0 {
		return
	}
	if epochs >= uint32(r.d) {
		*r = record{}
		return
	}
	r.d -= uint16(epochs)
	ts := uint32(r.ts) + epochs
	if ts > f.cfg.TSMax {
		ts = f.cfg.TSMax
	}
	r.ts = uint16(ts)
	r.tl += epochs * epochTicks
}

// Reset clears all records and the operation counters.
func (f *Filter) Reset() {
	for i := range f.recs {
		f.recs[i] = record{}
	}
	f.live = 0
	f.recordOps = 0
	f.queryOps = 0
}

// Counters returns the cumulative RecordDrop and Query operation counts
// since creation (or Reset), for telemetry.
func (f *Filter) Counters() (recordOps, queryOps int64) {
	return f.recordOps, f.queryOps
}

// FalsePositiveRate returns the probability that a clean flow collides
// with recorded flows in all of the k arrays it reads, with n flows
// recorded in arrays of 2^log2Slots slots (paper Section V-B.5):
//
//	P_fp = (1 - e^(-n/2^log2Slots))^k
//
// log2Slots is Config.Bits, the base-2 logarithm of the per-array table
// width — an exponent, not a data quantity measured in bits.
//
// floc:eq V-B.5 (false-positive rate)
func FalsePositiveRate(n int, log2Slots, k int) float64 {
	if k < 1 || log2Slots < 1 || n <= 0 {
		return 0
	}
	load := float64(n) / float64(uint64(1)<<log2Slots)
	return math.Pow(1-math.Exp(-load), float64(k))
}

// SelectK returns the number of arrays k that flows of attack domains
// should update so the false-positive rate seen by legitimate flows stays
// below the rate implied by nThresh recorded flows: it finds the smallest
// k >= 1 such that the effective load n_legit + n_attack*k/m is <= nThresh,
// or 1 if even k=1 cannot satisfy it (Section V-B.5).
func SelectK(nLegit, nAttack, m, nThresh int) int {
	if m < 1 {
		return 1
	}
	for k := m; k >= 1; k-- {
		eff := nLegit + nAttack*k/m
		if eff <= nThresh {
			return k
		}
	}
	return 1
}
