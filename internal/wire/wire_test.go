package wire

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"floc/internal/capability"
	"floc/internal/netsim"
	"floc/internal/pathid"
)

func sampleHeader() Header {
	h := Header{
		Version: Version1,
		Flags:   FlagCapability | FlagAttack,
		Kind:    netsim.KindUDP,
		Src:     0x0a000001,
		Dst:     0x0a000002,
		Length:  1500,
		PathLen: 3,
		Cap:     capability.Capability{C0: 0x1122334455667788, C1: 0x99aabbccddeeff00, Slot: 7},
	}
	h.Path[0], h.Path[1], h.Path[2] = 64, 7, 1
	return h
}

func TestRoundTrip(t *testing.T) {
	cases := []Header{
		sampleHeader(),
		{Version: Version1, Kind: netsim.KindSYN, Src: 1, Dst: 2, Length: 40, PathLen: 0},
		{Version: Version1, Flags: FlagPriority, Kind: netsim.KindData, Length: 1, PathLen: MaxPathLen},
	}
	for i, h := range cases {
		buf, err := MarshalAppend(nil, &h)
		if err != nil {
			t.Fatalf("case %d: marshal: %v", i, err)
		}
		if len(buf) != h.EncodedLen() {
			t.Fatalf("case %d: encoded %d bytes, EncodedLen says %d", i, len(buf), h.EncodedLen())
		}
		var got Header
		n, err := Decode(buf, &got)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if n != len(buf) {
			t.Fatalf("case %d: decode consumed %d of %d", i, n, len(buf))
		}
		if got != h {
			t.Fatalf("case %d: round trip mismatch:\n got %+v\nwant %+v", i, got, h)
		}
	}
}

func TestStreamDecode(t *testing.T) {
	// Headers are self-delimiting: three back-to-back headers decode in
	// sequence from one buffer.
	hs := []Header{sampleHeader(), {Version: Version1, Kind: netsim.KindACK, Length: 40}, sampleHeader()}
	var buf []byte
	for i := range hs {
		var err error
		buf, err = MarshalAppend(buf, &hs[i])
		if err != nil {
			t.Fatal(err)
		}
	}
	off := 0
	for i := range hs {
		var got Header
		n, err := Decode(buf[off:], &got)
		if err != nil {
			t.Fatalf("header %d: %v", i, err)
		}
		if got != hs[i] {
			t.Fatalf("header %d mismatch", i)
		}
		off += n
	}
	if off != len(buf) {
		t.Fatalf("consumed %d of %d", off, len(buf))
	}
}

func TestDecodeErrors(t *testing.T) {
	good, err := MarshalAppend(nil, &Header{Version: Version1, Kind: netsim.KindUDP, Length: 100, PathLen: 2, Path: [MaxPathLen]pathid.ASN{9, 1}})
	if err != nil {
		t.Fatal(err)
	}
	mut := func(i int, v byte) []byte {
		b := append([]byte(nil), good...)
		b[i] = v
		return b
	}
	cases := []struct {
		name string
		buf  []byte
		want error
	}{
		{"empty", nil, ErrShort},
		{"truncated-fixed", good[:headerFixedLen-1], ErrShort},
		{"truncated-path", good[:len(good)-1], ErrShort},
		{"version", mut(0, 9), ErrVersion},
		{"flags", mut(1, 0x80), ErrFlags},
		{"kind-zero", mut(2, 0), ErrKind},
		{"kind-high", mut(2, 200), ErrKind},
		{"pathlen", mut(3, MaxPathLen+1), ErrPathLen},
		{"length", func() []byte { b := mut(12, 0); b[13] = 0; return b }(), ErrLength},
	}
	for _, tc := range cases {
		var h Header
		if _, err := Decode(tc.buf, &h); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestMarshalErrors(t *testing.T) {
	base := sampleHeader()
	cases := []struct {
		name string
		mod  func(*Header)
		want error
	}{
		{"version", func(h *Header) { h.Version = 0 }, ErrVersion},
		{"flags", func(h *Header) { h.Flags |= 1 << 7 }, ErrFlags},
		{"kind", func(h *Header) { h.Kind = 0 }, ErrKind},
		{"pathlen", func(h *Header) { h.PathLen = MaxPathLen + 1 }, ErrPathLen},
		{"length", func(h *Header) { h.Length = 0 }, ErrLength},
		{"slot", func(h *Header) { h.Cap.Slot = 256 }, ErrSlot},
	}
	for _, tc := range cases {
		h := base
		tc.mod(&h)
		if _, err := MarshalAppend(nil, &h); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestMarshalDecodeAllocationFree(t *testing.T) {
	h := sampleHeader()
	buf := make([]byte, 0, MaxEncodedLen)
	frame, err := MarshalAppend(buf, &h)
	if err != nil {
		t.Fatal(err)
	}
	var got Header
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := MarshalAppend(buf[:0], &h); err != nil {
			t.Fatal(err)
		}
		if _, err := Decode(frame, &got); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("marshal+decode allocates %v times per op, want 0", allocs)
	}
}

func TestPacketConversion(t *testing.T) {
	pkt := netsim.Packet{
		ID: 42, Src: 5, Dst: 6, Size: 1000, Kind: netsim.KindData,
		Path: pathid.New(3, 2, 1), Attack: true, Priority: true,
	}
	var h Header
	if err := FromPacket(&h, &pkt); err != nil {
		t.Fatal(err)
	}
	if h.Flags&FlagAttack == 0 || h.Flags&FlagPriority == 0 {
		t.Fatalf("flags not carried: %08b", h.Flags)
	}
	var back netsim.Packet
	in := NewInterner()
	id, key := resolve(in, &h)
	h.ToPacket(&back, 42, id, key, 7)
	if back.Src != pkt.Src || back.Dst != pkt.Dst || back.Size != pkt.Size ||
		back.Kind != pkt.Kind || !back.Path.Equal(pkt.Path) ||
		back.PathKey != "3-2-1" || back.PathHandle != 7 || !back.Attack || !back.Priority {
		t.Fatalf("conversion mismatch: %+v", back)
	}

	// Oversized fields are rejected on the way out.
	long := netsim.Packet{Size: 100, Kind: netsim.KindUDP, Path: make(pathid.PathID, MaxPathLen+1)}
	if err := FromPacket(&h, &long); !errors.Is(err, ErrPathLen) {
		t.Fatalf("long path: err = %v", err)
	}
	big := netsim.Packet{Size: 1 << 17, Kind: netsim.KindUDP}
	if err := FromPacket(&h, &big); !errors.Is(err, ErrLength) {
		t.Fatalf("oversize packet: err = %v", err)
	}
}

// resolve unpacks the canonical identity from ResolveFull's result.
func resolve(in *Interner, h *Header) (pathid.PathID, string) {
	r := in.ResolveFull(h)
	return r.ID, r.Key
}

func TestInternerCanonicalizes(t *testing.T) {
	in := NewInterner()
	h := sampleHeader()
	id1, key1 := resolve(in, &h)
	id2, key2 := resolve(in, &h)
	if &id1[0] != &id2[0] {
		t.Fatal("interner returned distinct PathID allocations for one path")
	}
	if key1 != "64-7-1" || key2 != key1 {
		t.Fatalf("keys: %q, %q", key1, key2)
	}
	if in.Len() != 1 {
		t.Fatalf("interner holds %d entries, want 1", in.Len())
	}
	h.Path[0] = 65
	if _, key := resolve(in, &h); key != "65-7-1" {
		t.Fatalf("second path key %q", key)
	}
	if in.Len() != 2 {
		t.Fatalf("interner holds %d entries, want 2", in.Len())
	}
}

func TestCaptureRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	cw := NewCaptureWriter(&buf)
	hs := []Header{sampleHeader(), {Version: Version1, Kind: netsim.KindSYN, Length: 40}}
	times := []float64{0.5, 1.25}
	for i := range hs {
		if err := cw.Write(times[i], &hs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Write(0.1, &hs[0]); err == nil {
		t.Fatal("time regression accepted")
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	if cw.Records() != 2 {
		t.Fatalf("records = %d", cw.Records())
	}

	cr := NewCaptureReader(&buf)
	for i := range hs {
		var h Header
		tm, err := cr.Next(&h)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if tm != times[i] || h != hs[i] {
			t.Fatalf("record %d mismatch: t=%v h=%+v", i, tm, h)
		}
	}
	if _, err := cr.Next(new(Header)); err != io.EOF {
		t.Fatalf("tail err = %v, want EOF", err)
	}
}

// malformedRecord is a broken record and the ErrorKind the lenient reader
// counts it under.
type malformedRecord struct {
	name   string
	record []byte
	kind   ErrorKind
}

// malformedRecords are one record per way a record breaks in the middle
// of a capture.
func malformedRecords(t *testing.T) []malformedRecord {
	frame, err := MarshalAppend(nil, &Header{Version: Version1, Kind: netsim.KindUDP, Length: 9})
	if err != nil {
		t.Fatal(err)
	}
	n := uint32(len(frame))
	badVersion := append([]byte{0xff}, frame[1:]...)
	return []malformedRecord{
		{"version", rawRecord(1, 0, n, n, badVersion), ErrKindVersion},
		{"short frame", rawRecord(1, 0, 1, 1, []byte{Version1}), ErrKindShort},
		{"trailing bytes", rawRecord(1, 0, n+1, n+1, append(frame, 0)), ErrKindFraming},
		{"oversized frame", rawRecord(1, 0, MaxEncodedLen+1, MaxEncodedLen+1, make([]byte, MaxEncodedLen+1)), ErrKindFraming},
		{"nanoseconds", rawRecord(1, 1e9, n, n, frame), ErrKindFraming},
		{"time range", rawRecord(9_007_199, 254_740_992, n, n, frame), ErrKindFraming},
		{"truncated packet", rawRecord(1, 0, n, n+1, frame), ErrKindFraming},
	}
}

// TestCaptureReaderRejectsMalformed: in strict mode every malformed record
// fails the read, naming the record, and so does a record cut off by the
// end of the capture.
func TestCaptureReaderRejectsMalformed(t *testing.T) {
	good := frameRecord(t, 1e9, sampleHeader())
	cases := append(malformedRecords(t),
		malformedRecord{"header cut", good[:recordHeaderLen/2], ErrKindFraming},
		malformedRecord{"frame cut", good[:len(good)-1], ErrKindFraming},
		malformedRecord{"frame empty", good[:recordHeaderLen], ErrKindFraming},
	)
	for _, c := range cases {
		cr := NewCaptureReader(bytes.NewReader(pcapFile(good, c.record)))
		if _, err := cr.Next(new(Header)); err != nil {
			t.Fatalf("%s: good first record: %v", c.name, err)
		}
		if _, err := cr.Next(new(Header)); err == nil || err == io.EOF || !strings.Contains(err.Error(), "record 2") {
			t.Errorf("%s: err = %v, want an error naming record 2", c.name, err)
		}
	}
}

// TestInternerAtBound churns the interner past internerMax distinct
// paths: the table must stop growing at the bound while ResolveFull keeps
// returning correct identifiers via the per-call fallback, and paths
// interned before the bound stay canonical.
func TestInternerAtBound(t *testing.T) {
	if testing.Short() {
		t.Skip("fills a 1<<16-entry table")
	}
	in := NewInterner()
	h := Header{Version: Version1, Kind: netsim.KindUDP, Length: 100, PathLen: 3}
	h.Path[2] = 1
	for i := 0; i < internerMax; i++ {
		h.Path[0] = pathid.ASN(i >> 8)
		h.Path[1] = pathid.ASN(i & 0xff)
		resolve(in, &h)
	}
	// The last path under the bound (entry 65 536) is remembered like any
	// other: canonical across calls, and it takes a handle binding.
	last1, _ := resolve(in, &h)
	last2, _ := resolve(in, &h)
	in.BindHandle(&h, 77)
	if r := in.ResolveFull(&h); &last1[0] != &last2[0] || !r.Bound || r.Handle != 77 {
		t.Fatalf("entry %d was not remembered: bound=%v handle=%d", internerMax, r.Bound, r.Handle)
	}
	if in.Len() != internerMax {
		t.Fatalf("interner holds %d entries after %d distinct paths, want %d", in.Len(), internerMax, internerMax)
	}

	// Past the bound: fresh paths still resolve correctly but are not
	// remembered.
	h.Path[0], h.Path[1] = 999, 42
	id, key := resolve(in, &h)
	if key != "999-42-1" || !id.Equal(pathid.New(999, 42, 1)) {
		t.Fatalf("overflow path resolved to id=%v key=%q", id, key)
	}
	if in.Len() != internerMax {
		t.Fatalf("interner grew past the bound to %d entries", in.Len())
	}
	id2, key2 := resolve(in, &h)
	if key2 != key || !id2.Equal(id) {
		t.Fatalf("overflow path unstable across calls: %q vs %q", key2, key)
	}
	if &id2[0] == &id[0] {
		t.Fatal("overflow path was interned despite a full table")
	}
	in.BindHandle(&h, 78) // a no-op past the bound
	if r := in.ResolveFull(&h); r.Bound || r.Handle != 0 {
		t.Fatalf("overflow path took a binding: bound=%v handle=%d", r.Bound, r.Handle)
	}

	// Paths interned before the bound are unaffected by the churn.
	h.Path[0], h.Path[1] = 0, 7
	c1, ck := resolve(in, &h)
	c2, _ := resolve(in, &h)
	if ck != "0-7-1" || &c1[0] != &c2[0] {
		t.Fatalf("pre-bound path lost canonical identity: key=%q", ck)
	}
}

// TestInternerReinternStable re-resolves one path many times: the table
// must not grow and every call must return the same canonical backing
// array and key.
func TestInternerReinternStable(t *testing.T) {
	in := NewInterner()
	h := sampleHeader()
	id0, key0 := resolve(in, &h)
	for i := 0; i < 1000; i++ {
		id, key := resolve(in, &h)
		if &id[0] != &id0[0] || key != key0 {
			t.Fatalf("iteration %d: re-intern returned a new identity", i)
		}
	}
	if in.Len() != 1 {
		t.Fatalf("re-interning one path grew the table to %d entries", in.Len())
	}
}

// TestCaptureReaderLenientCounts exercises SkipMalformed at the wire
// level: bad records are skipped and counted under the right ErrorKind
// while surrounding good records still decode, and a record cut off by
// the end of the capture counts as framing.
func TestCaptureReaderLenientCounts(t *testing.T) {
	good := frameRecord(t, 1e9, sampleHeader())
	bad := malformedRecords(t)
	records := [][]byte{good}
	var want [NumErrorKinds]int64
	for _, c := range bad {
		records = append(records, c.record)
		want[c.kind]++
	}
	records = append(records, good, good[:len(good)-1])
	want[ErrKindFraming]++

	cr := NewCaptureReader(bytes.NewReader(pcapFile(records...)))
	cr.SkipMalformed(true)
	var h Header
	n := 0
	for {
		if _, err := cr.Next(&h); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("lenient reader surfaced error: %v", err)
		}
		n++
	}
	if n != 2 {
		t.Fatalf("decoded %d records, want 2", n)
	}
	if got := cr.Malformed(); got != int64(len(bad)+1) {
		t.Fatalf("Malformed() = %d, want %d", got, len(bad)+1)
	}
	if byKind := cr.MalformedByKind(); byKind != want {
		t.Fatalf("per-kind counts %v, want %v", byKind, want)
	}
}
