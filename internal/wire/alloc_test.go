package wire

import (
	"bytes"
	"io"
	"testing"

	"floc/internal/netsim"
	"floc/internal/pathid"
)

// The codec carries a zero-allocation contract on its per-packet
// functions: decode into a caller-owned Header, marshal into a
// caller-owned buffer, and steady-state interner hits must not touch the
// heap. These gates enforce it against the compiler's actual escape
// analysis; the fuzz targets extend it to every input a decoder accepts.

func TestZeroAllocDecode(t *testing.T) {
	h := sampleHeader()
	buf, err := MarshalAppend(nil, &h)
	if err != nil {
		t.Fatal(err)
	}
	var got Header
	if avg := testing.AllocsPerRun(200, func() {
		if _, err := Decode(buf, &got); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("Decode allocates %.1f times per op, want 0", avg)
	}
}

func TestZeroAllocMarshalAppend(t *testing.T) {
	h := sampleHeader()
	dst := make([]byte, 0, MaxEncodedLen)
	if avg := testing.AllocsPerRun(200, func() {
		out, err := MarshalAppend(dst[:0], &h)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) == 0 {
			t.Fatal("empty encoding")
		}
	}); avg != 0 {
		t.Fatalf("MarshalAppend allocates %.1f times per op, want 0", avg)
	}
}

func TestZeroAllocInternerResolve(t *testing.T) {
	h := sampleHeader()
	in := NewInterner()
	in.ResolveFull(&h) // first sighting interns (the sanctioned cold path)
	if avg := testing.AllocsPerRun(200, func() {
		if in.ResolveFull(&h).Key == "" {
			t.Fatal("empty key")
		}
	}); avg != 0 {
		t.Fatalf("Interner.ResolveFull steady state allocates %.1f times per op, want 0", avg)
	}
}

func TestZeroAllocFromPacket(t *testing.T) {
	h := sampleHeader()
	var pkt netsim.Packet
	pkt.Size = int(h.Length)
	pkt.Kind = h.Kind
	var out Header
	if avg := testing.AllocsPerRun(200, func() {
		pkt2 := pkt
		if err := FromPacket(&out, &pkt2); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("FromPacket allocates %.1f times per op, want 0", avg)
	}
}

// BenchmarkWireDecode is the codec half of the perf baseline
// (scripts/bench-snapshot.sh): ns/op to decode one representative header
// with a path and capability trailer.
func BenchmarkWireDecode(b *testing.B) {
	h := sampleHeader()
	buf, err := MarshalAppend(nil, &h)
	if err != nil {
		b.Fatal(err)
	}
	var got Header
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(buf, &got); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireMarshalAppend measures the encode direction into a
// recycled buffer, the shape flocd's transmit path uses.
func BenchmarkWireMarshalAppend(b *testing.B) {
	h := sampleHeader()
	dst := make([]byte, 0, MaxEncodedLen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := MarshalAppend(dst[:0], &h)
		if err != nil {
			b.Fatal(err)
		}
		dst = out[:0]
	}
}

// captureRecords returns a capture of n records of the benchmark's shape:
// a 3-hop UDP header at millisecond-grained times.
func captureRecords(tb testing.TB, n int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	cw := NewCaptureWriter(&buf)
	h := Header{Version: Version1, Kind: netsim.KindUDP, Src: 1, Dst: 9999, Length: 1000, PathLen: 3}
	h.Path[0], h.Path[1], h.Path[2] = 100, 10, 1
	for i := 0; i < n; i++ {
		h.Src = uint32(i)
		if err := cw.Write(float64(2*i)/1000, &h); err != nil {
			tb.Fatal(err)
		}
	}
	if err := cw.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func TestZeroAllocCaptureNext(t *testing.T) {
	const runs = 200
	cr := NewCaptureReader(bytes.NewReader(captureRecords(t, runs+2)))
	var h Header
	if avg := testing.AllocsPerRun(runs, func() {
		if _, err := cr.Next(&h); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("CaptureReader.Next allocates %.1f times per record, want 0", avg)
	}
}

// TestZeroAllocCaptureWrite writes replay_mix's grid (i·20/10^6 s,
// benchmark/gen.go).
func TestZeroAllocCaptureWrite(t *testing.T) {
	h := sampleHeader()
	cw := NewCaptureWriter(io.Discard)
	i := 0
	if avg := testing.AllocsPerRun(200, func() {
		i++
		if err := cw.Write(float64(i)*20/1e6, &h); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("CaptureWriter.Write allocates %.1f times per record, want 0", avg)
	}
}

// BenchmarkCaptureNext is the replay producer's per-record cost
// (wire.capture_next_ns in the repo benchmark): read one record header,
// bound its frame and decode the header.
func BenchmarkCaptureNext(b *testing.B) {
	const records = 4096
	data := captureRecords(b, records)
	src := bytes.NewReader(data)
	cr := NewCaptureReader(src)
	var h Header
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cr.Next(&h); err == io.EOF {
			src.Reset(data[pcapHeaderLen:]) // records only: the reader has the global header
		} else if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCaptureWrite measures the writer: marshal one header and its
// record header into the buffered output, at replay_mix's grid times.
func BenchmarkCaptureWrite(b *testing.B) {
	cw := NewCaptureWriter(io.Discard)
	h := sampleHeader()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		if err := cw.Write(float64(i)*20/1e6, &h); err != nil {
			b.Fatal(err)
		}
	}
}

func TestZeroAllocToPacket(t *testing.T) {
	h := sampleHeader()
	path := h.PathID()
	key := path.Key()
	var pkt netsim.Packet
	if avg := testing.AllocsPerRun(200, func() {
		h.ToPacket(&pkt, 1, path, key, 3)
	}); avg != 0 {
		t.Fatalf("ToPacket allocates %.1f times per op, want 0", avg)
	}
	if pkt.PathKey != key || pkt.Size != int(h.Length) {
		t.Fatalf("ToPacket filled %+v", pkt)
	}
}

// TestZeroAllocDecodeUnseenHeaders: decoding headers whose addresses and
// paths the decoder has never seen allocates nothing, so Decode keeps no
// state that grows with the values a sender picks. Every run decodes
// fresh values, the warm-up included.
func TestZeroAllocDecodeUnseenHeaders(t *testing.T) {
	const perRun = 1 << 14
	h := sampleHeader()
	buf, err := MarshalAppend(nil, &h)
	if err != nil {
		t.Fatal(err)
	}
	next := uint32(0)
	var got Header
	if avg := testing.AllocsPerRun(1, func() {
		for i := 0; i < perRun; i++ {
			next++
			h.Src, h.Path[0] = next, pathid.ASN(next)
			if _, err := MarshalAppend(buf[:0], &h); err != nil {
				t.Fatal(err)
			}
			if _, err := Decode(buf, &got); err != nil || got.Src != next {
				t.Fatalf("decoded src %d, err %v; want %d", got.Src, err, next)
			}
		}
	}); avg != 0 {
		t.Fatalf("decoding %d unseen headers allocates %.0f times, want 0", perRun, avg)
	}
}
