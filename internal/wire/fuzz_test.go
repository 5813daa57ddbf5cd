package wire

import (
	"bytes"
	"testing"

	"floc/internal/capability"
	"floc/internal/netsim"
	"floc/internal/pathid"
)

// fuzzSeeds returns a few valid encoded headers so the corpus starts in
// the interesting region of the input space.
func fuzzSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	hs := []Header{
		{Version: Version1, Kind: netsim.KindSYN, Length: 40},
		sampleHeader(),
		{Version: Version1, Flags: FlagPriority, Kind: netsim.KindData, Src: 1, Dst: 2, Length: 0xffff, PathLen: MaxPathLen},
	}
	out := make([][]byte, 0, len(hs))
	for i := range hs {
		b, err := MarshalAppend(nil, &hs[i])
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// FuzzWireDecode feeds arbitrary bytes to Decode. Decode must never
// panic, anything it accepts must decode without allocating, and must
// re-encode to exactly the bytes it consumed (decode is the partial
// inverse of marshal). Rejections build their error and may allocate.
func FuzzWireDecode(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Add([]byte{Version1, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var h Header
		n, err := Decode(data, &h)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if avg := testing.AllocsPerRun(1, func() { _, _ = Decode(data, &h) }); avg != 0 {
			t.Fatalf("Decode of an accepted header allocates %.0f times", avg)
		}
		if n != h.EncodedLen() {
			t.Fatalf("consumed %d bytes but EncodedLen = %d", n, h.EncodedLen())
		}
		re, err := MarshalAppend(nil, &h)
		if err != nil {
			t.Fatalf("accepted header fails to re-encode: %v", err)
		}
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("re-encode mismatch:\n got %x\nwant %x", re, data[:n])
		}
	})
}

// FuzzWireRoundTrip builds a canonical header from fuzzed fields and
// checks marshal∘decode is the identity.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add(uint8(0), uint8(1), uint32(1), uint32(2), uint16(40), uint8(0), uint64(0), uint64(0), uint8(0), uint64(0))
	f.Add(uint8(7), uint8(5), uint32(0xffffffff), uint32(0), uint16(0xffff), uint8(MaxPathLen), uint64(1), uint64(2), uint8(3), uint64(0x0123456789abcdef))
	f.Fuzz(func(t *testing.T, flags, kind uint8, src, dst uint32, length uint16, pathLen uint8, c0, c1 uint64, slot uint8, pathSeed uint64) {
		h := Header{
			Version: Version1,
			Flags:   Flags(flags) & knownFlags,
			Kind:    netsim.KindSYN + netsim.PacketKind(kind%5),
			Src:     src,
			Dst:     dst,
			Length:  length,
			PathLen: pathLen % (MaxPathLen + 1),
		}
		if h.Length == 0 {
			h.Length = 1
		}
		// Derive path entries from the seed with a cheap mix so distinct
		// seeds exercise distinct paths.
		x := pathSeed
		for i := 0; i < int(h.PathLen); i++ {
			x = x*6364136223846793005 + 1442695040888963407
			h.Path[i] = pathid.ASN(uint32(x >> 32))
		}
		if h.Flags&FlagCapability != 0 {
			h.Cap = capability.Capability{C0: c0, C1: c1, Slot: int(slot)}
		}
		buf, err := MarshalAppend(nil, &h)
		if err != nil {
			t.Fatalf("canonical header rejected: %v (%+v)", err, h)
		}
		var got Header
		n, err := Decode(buf, &got)
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if n != len(buf) {
			t.Fatalf("decode consumed %d of %d", n, len(buf))
		}
		if got != h {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, h)
		}
	})
}
