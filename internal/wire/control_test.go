package wire

import (
	"bytes"
	"errors"
	"testing"

	"floc/internal/pathid"
	"floc/internal/units"
)

// sampleControlFrame is a representative feedback frame: several records
// with distinct path lengths, including a release (zero-limit) record and
// an unknown-path (zero-length) record.
func sampleControlFrame() ControlFrame {
	f := ControlFrame{
		Version:    ControlVersion1,
		Kind:       ControlFeedback,
		Hops:       2,
		Origin:     3,
		Seq:        41,
		TTLMillis:  1500,
		NumRecords: 4,
	}
	f.Records[0] = FeedbackRecord{PathLen: 3, LimitBits: 2_000_000}
	f.Records[0].Path[0], f.Records[0].Path[1], f.Records[0].Path[2] = 108, 12, 1
	f.Records[1] = FeedbackRecord{PathLen: 1, LimitBits: 0} // release
	f.Records[1].Path[0] = 42
	f.Records[2] = FeedbackRecord{PathLen: 0, LimitBits: 64_000} // unknown path
	f.Records[3] = FeedbackRecord{PathLen: MaxPathLen, LimitBits: ^uint64(0)}
	for i := 0; i < MaxPathLen; i++ {
		f.Records[3].Path[i] = pathid.ASN(200 + i)
	}
	return f
}

func TestControlRoundTrip(t *testing.T) {
	f := sampleControlFrame()
	buf, err := MarshalControlAppend(nil, &f)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != f.ControlEncodedLen() {
		t.Fatalf("encoded %d bytes, ControlEncodedLen says %d", len(buf), f.ControlEncodedLen())
	}
	var got ControlFrame
	n, err := DecodeControl(buf, &got)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Fatalf("consumed %d of %d bytes", n, len(buf))
	}
	if got != f {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, f)
	}
}

func TestControlTrailingBytesIgnored(t *testing.T) {
	f := sampleControlFrame()
	buf, err := MarshalControlAppend(nil, &f)
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, 0xde, 0xad)
	var got ControlFrame
	n, err := DecodeControl(buf, &got)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf)-2 {
		t.Fatalf("consumed %d, want %d", n, len(buf)-2)
	}
}

func TestControlDecodeErrors(t *testing.T) {
	f := sampleControlFrame()
	valid, err := MarshalControlAppend(nil, &f)
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(i int, v byte) []byte {
		b := append([]byte(nil), valid...)
		b[i] = v
		return b
	}
	cases := []struct {
		name string
		buf  []byte
		want error
		kind ErrorKind
	}{
		{"short-fixed", valid[:controlFixedLen-1], ErrShort, ErrKindShort},
		{"short-record", valid[:controlFixedLen+2], ErrShort, ErrKindShort},
		{"version", mutate(0, Version1), ErrVersion, ErrKindVersion},
		{"kind", mutate(1, 0xee), ErrKind, ErrKindKind},
		{"hops", mutate(2, MaxControlHops+1), ErrHops, ErrKindHops},
		{"count-zero", mutate(3, 0), ErrCount, ErrKindCount},
		{"count-over", mutate(3, MaxFeedbackRecords+1), ErrCount, ErrKindCount},
		{"ttl-zero", func() []byte {
			b := append([]byte(nil), valid...)
			b[16], b[17] = 0, 0
			return b
		}(), ErrTTL, ErrKindTTL},
		{"record-pathlen", mutate(controlFixedLen, MaxPathLen+1), ErrPathLen, ErrKindPathLen},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got ControlFrame
			n, err := DecodeControl(tc.buf, &got)
			if n != 0 {
				t.Fatalf("consumed %d bytes on error", n)
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("error = %v, want %v", err, tc.want)
			}
			if k := KindOfError(err); k != tc.kind {
				t.Fatalf("KindOfError = %v, want %v", k, tc.kind)
			}
		})
	}
}

func TestControlMarshalRejectsInvalid(t *testing.T) {
	f := sampleControlFrame()
	f.NumRecords = 0
	if _, err := MarshalControlAppend(nil, &f); !errors.Is(err, ErrCount) {
		t.Fatalf("zero records: %v, want ErrCount", err)
	}
	f = sampleControlFrame()
	f.Records[0].PathLen = MaxPathLen + 1
	if _, err := MarshalControlAppend(nil, &f); !errors.Is(err, ErrPathLen) {
		t.Fatalf("oversized record path: %v, want ErrPathLen", err)
	}
}

// Control frames and data headers must reject each other: a misdelivered
// datagram fails fast instead of being half-understood.
func TestControlAndDataCodecsDisjoint(t *testing.T) {
	f := sampleControlFrame()
	cb, err := MarshalControlAppend(nil, &f)
	if err != nil {
		t.Fatal(err)
	}
	var h Header
	if _, err := Decode(cb, &h); !errors.Is(err, ErrVersion) {
		t.Fatalf("data Decode of control frame: %v, want ErrVersion", err)
	}
	h = sampleHeader()
	db, err := MarshalAppend(nil, &h)
	if err != nil {
		t.Fatal(err)
	}
	var g ControlFrame
	if _, err := DecodeControl(db, &g); !errors.Is(err, ErrVersion) {
		t.Fatalf("DecodeControl of data header: %v, want ErrVersion", err)
	}
}

func TestFeedbackRecordPathHelpers(t *testing.T) {
	var r FeedbackRecord
	path := pathid.New(7, 8, 9)
	if err := r.SetPath(path); err != nil {
		t.Fatal(err)
	}
	if got := r.PathID(); got.Key() != path.Key() {
		t.Fatalf("PathID = %s, want %s", got.Key(), path.Key())
	}
	long := make([]pathid.ASN, MaxPathLen+1)
	if err := r.SetPath(pathid.New(long...)); !errors.Is(err, ErrPathLen) {
		t.Fatalf("SetPath overlong: %v, want ErrPathLen", err)
	}
	r.LimitBits = 5_000_000
	if got := r.Limit(); got != units.BitsPerSec(5_000_000) {
		t.Fatalf("Limit = %v", got)
	}
}

func TestControlTTLSeconds(t *testing.T) {
	f := ControlFrame{TTLMillis: 2500}
	if got := f.TTL(); got < 2.4999 || got > 2.5001 {
		t.Fatalf("TTL = %v, want 2.5", got)
	}
}

func TestZeroAllocControlDecode(t *testing.T) {
	f := sampleControlFrame()
	buf, err := MarshalControlAppend(nil, &f)
	if err != nil {
		t.Fatal(err)
	}
	var got ControlFrame
	if avg := testing.AllocsPerRun(200, func() {
		n, err := DecodeControl(buf, &got)
		if err != nil {
			t.Fatal(err)
		}
		if n != got.ControlEncodedLen() {
			t.Fatalf("consumed %d bytes but ControlEncodedLen = %d", n, got.ControlEncodedLen())
		}
	}); avg != 0 {
		t.Fatalf("DecodeControl and ControlEncodedLen allocate %.1f times per op, want 0", avg)
	}
}

func TestZeroAllocControlMarshalAppend(t *testing.T) {
	f := sampleControlFrame()
	dst := make([]byte, 0, MaxControlEncodedLen)
	if avg := testing.AllocsPerRun(200, func() {
		out, err := MarshalControlAppend(dst[:0], &f)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) == 0 {
			t.Fatal("empty encoding")
		}
	}); avg != 0 {
		t.Fatalf("MarshalControlAppend allocates %.1f times per op, want 0", avg)
	}
}

// BenchmarkControlEncode is the feedback_encode family of check.sh's
// perf-gate: ns/op to marshal one representative
// feedback frame into a recycled buffer, the shape the cluster sender
// uses on every publish and retry.
func BenchmarkControlEncode(b *testing.B) {
	f := sampleControlFrame()
	dst := make([]byte, 0, MaxControlEncodedLen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := MarshalControlAppend(dst[:0], &f)
		if err != nil {
			b.Fatal(err)
		}
		dst = out[:0]
	}
}

// BenchmarkControlDecode measures the receive direction.
func BenchmarkControlDecode(b *testing.B) {
	f := sampleControlFrame()
	buf, err := MarshalControlAppend(nil, &f)
	if err != nil {
		b.Fatal(err)
	}
	var got ControlFrame
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeControl(buf, &got); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzControlFrameDecode feeds arbitrary bytes to DecodeControl. It must
// never panic, anything it accepts must decode without allocating, and
// must re-encode to exactly the bytes it consumed (decode is the partial
// inverse of marshal) — what FuzzWireDecode enforces for data headers.
func FuzzControlFrameDecode(f *testing.F) {
	cf := sampleControlFrame()
	seed, err := MarshalControlAppend(nil, &cf)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{ControlVersion1, ControlFeedback, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		var frame ControlFrame
		n, err := DecodeControl(data, &frame)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if avg := testing.AllocsPerRun(1, func() { _, _ = DecodeControl(data, &frame) }); avg != 0 {
			t.Fatalf("DecodeControl of an accepted frame allocates %.0f times", avg)
		}
		if n != frame.ControlEncodedLen() {
			t.Fatalf("consumed %d bytes but ControlEncodedLen = %d", n, frame.ControlEncodedLen())
		}
		re, err := MarshalControlAppend(nil, &frame)
		if err != nil {
			t.Fatalf("accepted frame fails to re-encode: %v", err)
		}
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("re-encode mismatch:\n got %x\nwant %x", re, data[:n])
		}
	})
}
