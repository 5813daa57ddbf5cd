// Package wire is the binary codec for the FLoc shim header — the
// on-the-wire form of the metadata the simulator carries on every
// netsim.Packet: protocol version, flags, packet kind, the variable-length
// domain path identifier stamped by the origin BGP speaker (paper Section
// III-A), the declared packet length, and the optional two-part flow
// capability (Section IV-B.3).
//
// The codec is the boundary where traffic that originated outside this
// process enters the reproduction, so Decode is strict: every field is
// bounds- and version-checked, malformed input maps to a typed error, and
// decoding arbitrary bytes never panics (enforced by FuzzWireDecode).
// MarshalAppend and Decode are allocation-free on the success path so the
// daemon's per-datagram cost is bounded by the header walk itself.
//
// Layout (big-endian, lengths in bytes):
//
//	offset  size  field
//	0       1     version (currently 1)
//	1       1     flags (capability, attack ground truth, priority)
//	2       1     kind (netsim.PacketKind, 1..5)
//	3       1     path length p (number of domains, 0..16)
//	4       4     source address
//	8       4     destination address
//	12      2     packet length (bytes, > 0)
//	14      4*p   path identifier, origin domain first
//	14+4*p  17    capability C0 (8), C1 (8), slot (1) — iff FlagCapability
//
// An empty path (p = 0) is an unmarked packet; the router accounts it
// under its synthetic unknown path, exactly as in the simulator.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"floc/internal/capability"
	"floc/internal/netsim"
	"floc/internal/pathid"
)

// Version1 is the only wire version this codec speaks.
const Version1 = 1

// MaxPathLen bounds the number of domains a wire path identifier can
// carry. Measured AS paths are short (the paper's topologies stay under
// tree height 5); 16 leaves generous headroom while keeping the header
// and the decoder's fixed-size Path array small.
const MaxPathLen = 16

// Byte budget of the three header regions. headerFixedLen covers the
// fields every packet carries; capLen is the optional capability trailer.
const (
	headerFixedLen = 14                                     // bytes
	capLen         = 17                                     // bytes
	MaxEncodedLen  = headerFixedLen + 4*MaxPathLen + capLen // bytes
)

// Flags is the header flag byte.
type Flags uint8

// Flag bits. Unknown bits are a decode error: a header from a newer
// speaker must not be half-understood.
const (
	// FlagCapability marks the presence of the two-part capability trailer.
	FlagCapability Flags = 1 << 0
	// FlagAttack carries the ground-truth attack marker used only by
	// measurement and replay evaluation; no admission decision reads it
	// (mirrors netsim.Packet.Attack).
	FlagAttack Flags = 1 << 1
	// FlagPriority mirrors netsim.Packet.Priority for the per-flow
	// fairness baseline.
	FlagPriority Flags = 1 << 2

	knownFlags = FlagCapability | FlagAttack | FlagPriority
)

// Typed decode/marshal errors. Errors wrap these sentinels with detail;
// match with errors.Is.
var (
	// ErrShort reports a buffer too short for the declared header.
	ErrShort = errors.New("wire: buffer too short")
	// ErrVersion reports an unsupported wire version.
	ErrVersion = errors.New("wire: unsupported version")
	// ErrFlags reports unknown flag bits.
	ErrFlags = errors.New("wire: unknown flag bits")
	// ErrKind reports a packet kind outside the defined range.
	ErrKind = errors.New("wire: invalid packet kind")
	// ErrPathLen reports a path identifier longer than MaxPathLen.
	ErrPathLen = errors.New("wire: path length out of range")
	// ErrLength reports a zero declared packet length.
	ErrLength = errors.New("wire: invalid packet length")
	// ErrSlot reports a capability slot outside the encodable [0, 255].
	ErrSlot = errors.New("wire: capability slot out of range")
	// ErrTrailing reports bytes after the one frame a datagram or
	// capture record carries; KindOfError classifies it as framing.
	ErrTrailing = errors.New("wire: trailing bytes after frame")
	// ErrHops reports a control-frame hop budget above MaxControlHops.
	ErrHops = errors.New("wire: control hop budget out of range")
	// ErrCount reports a control-frame record count outside
	// [1, MaxFeedbackRecords].
	ErrCount = errors.New("wire: control record count out of range")
	// ErrTTL reports a zero control-frame TTL.
	ErrTTL = errors.New("wire: zero control TTL")
)

// Header is the decoded FLoc shim header. Path identifiers live in a
// fixed-size array so decoding allocates nothing; PathLen says how many
// leading entries are valid. Cap is meaningful only when
// Flags&FlagCapability is set, and is zero otherwise so marshal∘decode is
// the identity on canonical headers.
type Header struct {
	Version uint8
	Flags   Flags
	Kind    netsim.PacketKind
	Src     uint32
	Dst     uint32
	Length  uint16 // bytes
	PathLen uint8
	Path    [MaxPathLen]pathid.ASN
	Cap     capability.Capability
}

// Error constructors. Wrapping a sentinel goes through fmt, which has no
// place in the per-packet codec functions; the constructors fence that
// work off as sanctioned cold excursions (errors are the exceptional
// outcome — a flood of malformed packets pays for its own formatting).

// errValue wraps a sentinel with a single numeric detail.
func errValue(sentinel error, v int) error { return fmt.Errorf("%w: %d", sentinel, v) }

// errRange wraps a sentinel with a value/limit pair.
func errRange(sentinel error, v, limit int) error {
	return fmt.Errorf("%w: %d > %d", sentinel, v, limit)
}

// errShort reports a have/need buffer shortfall.
func errShort(have, need int) error { return fmt.Errorf("%w: %d < %d", ErrShort, have, need) }

// errBadFlags reports the offending unknown bits.
func errBadFlags(bad Flags) error { return fmt.Errorf("%w: %#02x", ErrFlags, uint8(bad)) }

// errZeroLength reports a zero declared length.
func errZeroLength() error { return fmt.Errorf("%w: zero", ErrLength) }

// errZeroTTL reports a zero control-frame TTL.
func errZeroTTL() error { return fmt.Errorf("%w: zero", ErrTTL) }

// EncodedLen returns the exact number of bytes MarshalAppend would write.
func (h *Header) EncodedLen() int {
	n := headerFixedLen + 4*int(h.PathLen)
	if h.Flags&FlagCapability != 0 {
		n += capLen
	}
	return n
}

// validate checks the header's encodable range; shared by MarshalAppend
// (reject before writing) and Decode (reject foreign input).
func (h *Header) validate() error {
	if err := validateShallow(h); err != nil {
		return err
	}
	if h.Flags&FlagCapability != 0 && (h.Cap.Slot < 0 || h.Cap.Slot > 255) {
		return errValue(ErrSlot, h.Cap.Slot)
	}
	return nil
}

// MarshalAppend appends the encoded header to dst and returns the
// extended slice. It does not allocate when dst has spare capacity
// (allocate once with make([]byte, 0, wire.MaxEncodedLen) and reuse).
func MarshalAppend(dst []byte, h *Header) ([]byte, error) {
	if err := h.validate(); err != nil {
		return dst, err
	}
	dst = append(dst, h.Version, uint8(h.Flags), uint8(h.Kind), h.PathLen)
	dst = binary.BigEndian.AppendUint32(dst, h.Src)
	dst = binary.BigEndian.AppendUint32(dst, h.Dst)
	dst = binary.BigEndian.AppendUint16(dst, h.Length)
	for i := 0; i < int(h.PathLen); i++ {
		dst = binary.BigEndian.AppendUint32(dst, uint32(h.Path[i]))
	}
	if h.Flags&FlagCapability != 0 {
		dst = binary.BigEndian.AppendUint64(dst, h.Cap.C0)
		dst = binary.BigEndian.AppendUint64(dst, h.Cap.C1)
		dst = append(dst, uint8(h.Cap.Slot))
	}
	return dst, nil
}

// Decode parses one header from the front of buf into h and returns the
// number of bytes consumed. Headers are self-delimiting, so captures can
// be decoded back-to-back from one buffer. On error it returns 0 and
// leaves h in an unspecified state; it never panics and never retains
// buf. Trailing bytes after the header are the caller's concern (a UDP
// datagram should contain exactly one header; a capture stream many).
//
// Decode is the module's validation boundary for wire bytes: buf is
// attacker-controlled until validateShallow range-checks the decoded
// fields, and a successful return hands the caller a vetted header.
func Decode(buf []byte, h *Header) (int, error) {
	if len(buf) < headerFixedLen {
		return 0, errShort(len(buf), headerFixedLen)
	}
	*h = Header{
		Version: buf[0],
		Flags:   Flags(buf[1]),
		Kind:    netsim.PacketKind(buf[2]),
		PathLen: buf[3],
		Src:     binary.BigEndian.Uint32(buf[4:8]),
		Dst:     binary.BigEndian.Uint32(buf[8:12]),
		Length:  binary.BigEndian.Uint16(buf[12:14]),
	}
	// Validate before trusting PathLen to size the remainder of the walk.
	if err := validateShallow(h); err != nil {
		return 0, err
	}
	n := headerFixedLen
	need := h.EncodedLen()
	if len(buf) < need {
		return 0, errShort(len(buf), need)
	}
	for i := 0; i < int(h.PathLen); i++ {
		h.Path[i] = pathid.ASN(binary.BigEndian.Uint32(buf[n : n+4]))
		n += 4
	}
	if h.Flags&FlagCapability != 0 {
		h.Cap.C0 = binary.BigEndian.Uint64(buf[n : n+8])
		h.Cap.C1 = binary.BigEndian.Uint64(buf[n+8 : n+16])
		h.Cap.Slot = int(buf[n+16])
		n += capLen
	}
	return n, nil
}

// validateShallow is validate minus the capability-slot check, which
// cannot fail on decode (one byte is always in range) and whose field is
// not yet populated when Decode calls this.
func validateShallow(h *Header) error {
	if h.Version != Version1 {
		return errValue(ErrVersion, int(h.Version))
	}
	if bad := h.Flags &^ knownFlags; bad != 0 {
		return errBadFlags(bad)
	}
	if h.Kind < netsim.KindSYN || h.Kind > netsim.KindUDP {
		return errValue(ErrKind, int(h.Kind))
	}
	if int(h.PathLen) > MaxPathLen {
		return errRange(ErrPathLen, int(h.PathLen), MaxPathLen)
	}
	if h.Length == 0 {
		return errZeroLength()
	}
	return nil
}

// PathSlice returns the valid prefix of the path array. The slice aliases
// the header; copy it (or use PathID) to outlive h.
func (h *Header) PathSlice() []pathid.ASN { return h.Path[:h.PathLen] }

// PathID returns a freshly allocated path identifier.
func (h *Header) PathID() pathid.PathID {
	return pathid.New(h.Path[:h.PathLen]...)
}

// FromPacket fills h from a simulator packet (the capture/daemon egress
// direction). The capability trailer is omitted: capabilities are issued
// by the measuring router, not carried by the simulator's packets.
func FromPacket(h *Header, pkt *netsim.Packet) error {
	if len(pkt.Path) > MaxPathLen {
		return errRange(ErrPathLen, len(pkt.Path), MaxPathLen)
	}
	if pkt.Size <= 0 || pkt.Size > 0xffff {
		return errValue(ErrLength, pkt.Size)
	}
	*h = Header{
		Version: Version1,
		Kind:    pkt.Kind,
		Src:     pkt.Src,
		Dst:     pkt.Dst,
		Length:  uint16(pkt.Size),
		PathLen: uint8(len(pkt.Path)),
	}
	copy(h.Path[:], pkt.Path)
	if pkt.Attack {
		h.Flags |= FlagAttack
	}
	if pkt.Priority {
		h.Flags |= FlagPriority
	}
	return nil
}

// ToPacket fills pkt from the decoded header. The caller supplies the
// packet ID and the canonical path identifier, key, and router path
// handle (via an Interner, so hot decode paths share one PathID per
// distinct path instead of allocating per packet). handle may be 0
// (unknown); a non-zero handle lets the router admit the packet without
// hashing anything but the flow id. Every field of pkt is overwritten —
// the ones a header does not carry with zero — so a recycled packet
// leaks nothing; the stores go field by field because a composite
// literal is built on the stack and then copied, 112 bytes twice.
func (h *Header) ToPacket(pkt *netsim.Packet, id uint64, path pathid.PathID, key string, handle uint32) {
	pkt.ID = id
	pkt.Src = h.Src
	pkt.Dst = h.Dst
	pkt.Size = int(h.Length)
	pkt.Kind = h.Kind
	pkt.Seq = 0
	pkt.Ack = 0
	pkt.Path = path
	pkt.PathKey = key
	pkt.PathHandle = handle
	pkt.Attack = h.Flags&FlagAttack != 0
	pkt.Priority = h.Flags&FlagPriority != 0
	pkt.SentAt = 0
}

// internerMax bounds the interner's table so adversarial path churn
// cannot grow it without limit; past the bound, ResolveFull falls back to
// per-call allocation (correct, just slower) and reports the path Bound
// with no handle.
const internerMax = 1 << 16

// Interner canonicalizes decoded path identifiers: one PathID and one
// key string per distinct path, looked up allocation-free. Not safe for
// concurrent use — give each decoding goroutine its own.
//
// The lookup structure is one open-addressed table over the path's AS
// numbers (DESIGN.md "Interner layout"): slots of {hash, entry index},
// linearly probed, in front of a dense entry array that holds each path
// inline, so a hit reads one slot and one entry and compares integers —
// no key is rendered, hashed as a string, or followed through a pointer.
type Interner struct {
	slots   []internSlot  // power-of-two length; grown at 3/4 load
	entries []internEntry // in order of first sighting; len(entries) <= internerMax
}

// internSlot is one probe position. The full hash is kept so that a
// probe rejects nearly every non-matching slot without touching its
// entry and growth never re-hashes a path.
type internSlot struct {
	hash uint32
	idx  uint32 // 1-based index into entries; 0 = empty
}

// internEntry is one interned path: the identity ResolveFull hands out
// and, inline, the AS numbers a probe compares against.
type internEntry struct {
	id     pathid.PathID
	key    string
	handle uint32 // router path handle, once bound
	bound  bool   // BindHandle ran for this entry (a 0 handle can be a valid binding)
	n      uint8  // valid prefix of path
	path   [MaxPathLen]pathid.ASN
}

// Resolved is ResolveFull's result: the canonical path identity plus the
// router handle binding. Bound means the binding is settled: BindHandle
// recorded Handle, or the interner is full and will never remember the
// path, whose Handle stays 0 so the router resolves it by key — interning
// such a path with the router would cost a barrier on every packet.
type Resolved struct {
	ID     pathid.PathID
	Key    string
	Handle uint32
	Bound  bool
}

// internerMinSlots is the table's initial size (a power of two).
const internerMinSlots = 64

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{slots: make([]internSlot, internerMinSlots)}
}

// hashPath mixes a path's AS numbers, and its length, into 32 bits: one
// multiply and one xor-shift per AS number. Paths are assigned by
// topology, not chosen per packet by a sender (the argument
// dataplane.pathShard makes for FNV), so the mix needs spread, not
// secrecy.
func hashPath(path []pathid.ASN) uint32 {
	const mult = 0x9e3779b97f4a7c15 // 2^64 / golden ratio, odd
	x := uint64(len(path)) + 1
	for _, as := range path {
		x = (x ^ uint64(as)) * mult
		x ^= x >> 32
	}
	return uint32(x)
}

// find returns the entry holding path, whose hash is hash, or nil. Only
// the valid prefix takes part: a caller-built Header may hold anything
// past PathLen.
func (in *Interner) find(hash uint32, path []pathid.ASN) *internEntry {
	mask := uint32(len(in.slots) - 1)
	for i := hash & mask; ; i = (i + 1) & mask {
		s := in.slots[i]
		if s.idx == 0 {
			return nil
		}
		if s.hash != hash {
			continue
		}
		e := &in.entries[s.idx-1]
		if pathid.PathID(e.path[:e.n]).Equal(path) {
			return e
		}
	}
}

// ResolveFull returns the canonical PathID and key for h's path plus the
// entry's router-handle binding, for ingest loops that stamp
// Packet.PathHandle: resolve, and on !Bound intern the path with the
// router once (cold) and BindHandle the result. Hits are allocation-free;
// misses take the cold intern path.
func (in *Interner) ResolveFull(h *Header) Resolved {
	return in.resolve(hashPath(h.PathSlice()), h)
}

// resolve is ResolveFull with the hash as a parameter, so tests can
// drive the table through degenerate hash functions.
func (in *Interner) resolve(hash uint32, h *Header) Resolved {
	if e := in.find(hash, h.PathSlice()); e != nil {
		return Resolved{ID: e.id, Key: e.key, Handle: e.handle, Bound: e.bound}
	}
	return in.intern(hash, h)
}

// BindHandle records the router path handle for h's path, so subsequent
// ResolveFull calls return it. A no-op for paths past the interner bound
// (they re-resolve per call anyway).
//
// Handle binding happens once per path.
func (in *Interner) BindHandle(h *Header, handle uint32) {
	in.bind(hashPath(h.PathSlice()), h, handle)
}

// bind is BindHandle with the hash as a parameter (see resolve).
func (in *Interner) bind(hash uint32, h *Header, handle uint32) {
	if e := in.find(hash, h.PathSlice()); e != nil {
		e.handle = handle
		e.bound = true
	}
}

// intern is resolve's miss path: the first sighting of a path allocates
// its canonical PathID and key and (up to internerMax) remembers them.
//
// First sighting of a path allocates its canonical entry.
func (in *Interner) intern(hash uint32, h *Header) Resolved {
	id := h.PathID()
	res := Resolved{ID: id, Key: id.Key()}
	if len(in.entries) >= internerMax {
		res.Bound = true
		return res
	}
	e := internEntry{id: res.ID, key: res.Key, n: h.PathLen}
	copy(e.path[:], h.PathSlice())
	in.entries = append(in.entries, e)
	if 4*len(in.entries) > 3*len(in.slots) {
		in.grow()
	}
	in.place(internSlot{hash: hash, idx: uint32(len(in.entries))})
	return res
}

// place stores s in the first empty slot of its probe sequence.
func (in *Interner) place(s internSlot) {
	mask := uint32(len(in.slots) - 1)
	i := s.hash & mask
	for in.slots[i].idx != 0 {
		i = (i + 1) & mask
	}
	in.slots[i] = s
}

// grow doubles the table and re-places every slot from the hash it kept,
// so no path is hashed twice.
func (in *Interner) grow() {
	old := in.slots
	in.slots = make([]internSlot, 2*len(old))
	for _, s := range old {
		if s.idx != 0 {
			in.place(s)
		}
	}
}

// Len returns the number of interned paths, for tests and introspection.
func (in *Interner) Len() int { return len(in.entries) }
