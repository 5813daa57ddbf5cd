package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/big"
	"slices"
	"strconv"
	"strings"
	"testing"

	"floc/internal/netsim"
	"floc/internal/pathid"
	"floc/internal/rng"
)

// goldenPcapHeader is the global header of every capture, spelled out
// byte by byte from the libpcap file format: the nanosecond magic
// a1b23c4d, version 2.4, time zone and timestamp accuracy 0, snaplen
// MaxEncodedLen (78) and link type 147, LINKTYPE_USER0, all little-endian.
var goldenPcapHeader = []byte{
	0x4d, 0x3c, 0xb2, 0xa1,
	0x02, 0x00, 0x04, 0x00,
	0x00, 0x00, 0x00, 0x00,
	0x00, 0x00, 0x00, 0x00,
	0x4e, 0x00, 0x00, 0x00,
	0x93, 0x00, 0x00, 0x00,
}

// rawRecord assembles one record by hand: its 16-byte header, with the
// fields as given, then frame.
func rawRecord(sec, nsec, incl, orig uint32, frame []byte) []byte {
	le := binary.LittleEndian
	b := le.AppendUint32(nil, sec)
	b = le.AppendUint32(b, nsec)
	b = le.AppendUint32(b, incl)
	b = le.AppendUint32(b, orig)
	return append(b, frame...)
}

// frameRecord is the well-formed record of h at ns nanoseconds.
func frameRecord(tb testing.TB, ns uint64, h Header) []byte {
	tb.Helper()
	frame, err := MarshalAppend(nil, &h)
	if err != nil {
		tb.Fatal(err)
	}
	return rawRecord(uint32(ns/1e9), uint32(ns%1e9), uint32(len(frame)), uint32(len(frame)), frame)
}

// pcapFile is a capture of the given records.
func pcapFile(records ...[]byte) []byte {
	return bytes.Join(append([][]byte{goldenPcapHeader}, records...), nil)
}

// udpHeader is a 3-hop UDP header: a 26-byte frame.
func udpHeader() Header {
	h := Header{Version: Version1, Kind: netsim.KindUDP, Src: 1, Dst: 9999, Length: 1000, PathLen: 3}
	h.Path[0], h.Path[1], h.Path[2] = 100, 10, 1
	return h
}

// TestCaptureGoldenBytes: the writer emits, byte for byte, the global
// header and records assembled here from the libpcap format by hand, so
// any pcap reader (tcpdump -r, Wireshark) takes the file.
func TestCaptureGoldenBytes(t *testing.T) {
	frame := []byte{
		Version1, 0x00, byte(netsim.KindUDP), 0x03, // version, flags, kind, path length
		0x00, 0x00, 0x00, 0x01, // src
		0x00, 0x00, 0x27, 0x0f, // dst 9999
		0x03, 0xe8, // length 1000
		0x00, 0x00, 0x00, 0x64, 0x00, 0x00, 0x00, 0x0a, 0x00, 0x00, 0x00, 0x01, // path 100-10-1
	}
	want := append(append([]byte(nil), goldenPcapHeader...),
		0x01, 0x00, 0x00, 0x00, // 1 s
		0x00, 0x65, 0xcd, 0x1d, // 500 000 000 ns
		0x1a, 0x00, 0x00, 0x00, // 26 bytes captured
		0x1a, 0x00, 0x00, 0x00, // of 26
	)
	want = append(want, frame...)
	want = append(want,
		0x80, 0x51, 0x01, 0x00, // 86 400 s
		0x01, 0x00, 0x00, 0x00, // 1 ns
		0x1a, 0x00, 0x00, 0x00,
		0x1a, 0x00, 0x00, 0x00,
	)
	want = append(want, frame...)

	var out bytes.Buffer
	cw := NewCaptureWriter(&out)
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), goldenPcapHeader) {
		t.Fatalf("a capture of no records is % x, want the global header % x", out.Bytes(), goldenPcapHeader)
	}
	h := udpHeader()
	for _, at := range []float64{1.5, 86400.000000001} {
		if err := cw.Write(at, &h); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("writer emitted\n% x\nwant\n% x", out.Bytes(), want)
	}
}

// FuzzCaptureTemplate holds the writer to the record layout assembled
// here from the format, for any header Decode accepts at any ns below
// 2^51: seconds, nanoseconds, captured and original length, then the
// frame, twice over, so that a record the writer's buffer held before
// cannot leak into the next. The seeds cross the times at the edges of
// the seconds and nanoseconds fields and of the benchmarks' grids with
// the shortest, a three-hop and the longest header.
func FuzzCaptureTemplate(f *testing.F) {
	longest := sampleHeader()
	longest.PathLen = MaxPathLen
	for i := range longest.Path {
		longest.Path[i] = pathid.ASN(0xfffff000 + i)
	}
	for _, ns := range []uint64{0, 1, 20_000, 2_000_000, 999_999_999, 1e9, 1e9 + 1,
		19_999_980_000, 86_400e9 + 1, 1 << 50, 1<<51 - 1} {
		for _, h := range []Header{{Version: Version1, Kind: netsim.KindUDP, Length: 9}, sampleHeader(), longest} {
			frame, err := MarshalAppend(nil, &h)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(ns, frame)
		}
	}
	f.Fuzz(func(t *testing.T, ns uint64, hdr []byte) {
		var h Header
		if n, err := Decode(hdr, &h); err != nil || n != len(hdr) {
			return
		}
		ns &= 1<<51 - 1
		var out bytes.Buffer
		cw := NewCaptureWriter(&out)
		for i := 0; i < 2; i++ {
			if err := cw.Write(float64(ns)/1e9, &h); err != nil {
				t.Fatalf("writer refused %d ns: %v", ns, err)
			}
		}
		if err := cw.Flush(); err != nil {
			t.Fatal(err)
		}
		rec := frameRecord(t, ns, h)
		if want := pcapFile(rec, rec); !bytes.Equal(out.Bytes(), want) {
			t.Fatalf("%d ns, %+v: writer emitted\n% x\nwant\n% x", ns, h, out.Bytes(), want)
		}
	})
}

// TestCaptureTimeRoundTrip: every time of replay_mix's grid (packet i of
// 10^6 at i·20/10^6 s, benchmark/gen.go) is i·20 000 ns exactly, and the
// writer takes it and the reader gives it back bit for bit; so does every
// time written as ns/1e9 below 2^51 ns, the range in which t·1e9 rounds
// back to ns.
func TestCaptureTimeRoundTrip(t *testing.T) {
	const grid = 1_000_000
	times := make([]float64, 0, grid+200_000)
	for i := 0; i < grid; i++ {
		at := float64(i) * 20 / 1e6
		if ns := float64(i*20_000) / 1e9; math.Float64bits(ns) != math.Float64bits(at) {
			t.Fatalf("grid time %d: %v is not %d ns (%v)", i, at, i*20_000, ns)
		}
		times = append(times, at)
	}
	src := rng.New(3)
	extra := make([]uint64, cap(times)-len(times))
	for i := range extra {
		extra[i] = src.Uint64n(1 << 51)
	}
	slices.Sort(extra)
	for _, ns := range extra {
		if at := float64(ns) / 1e9; at >= times[len(times)-1] {
			times = append(times, at)
		}
	}

	pr, pw := io.Pipe()
	written := make(chan error, 1)
	go func() {
		cw := NewCaptureWriter(pw)
		h := udpHeader()
		for i, at := range times {
			if err := cw.Write(at, &h); err != nil {
				written <- fmt.Errorf("time %d, %v: %w", i, at, err)
				pw.Close()
				return
			}
		}
		written <- cw.Flush()
		pw.Close()
	}()
	cr := NewCaptureReader(pr)
	var h Header
	for i, at := range times {
		back, err := cr.Next(&h)
		if err != nil {
			t.Fatalf("record %d: %v (writer: %v)", i, err, <-written)
		}
		if math.Float64bits(back) != math.Float64bits(at) {
			t.Fatalf("record %d: wrote t = %v, read back %v", i, at, back)
		}
	}
	if _, err := cr.Next(&h); err != io.EOF {
		t.Fatalf("after the last record: %v, want io.EOF", err)
	}
	if err := <-written; err != nil {
		t.Fatal(err)
	}
}

// exactNanos is the writer's time rule worked out in exact arithmetic:
// the whole ns in [0, 2^53) whose ns/10^9, rounded once to float64, is at.
// Below 2^51 ns there is at most one, as float64 steps there are finer
// than a nanosecond; a ns that rounds to at lies within one of at·10^9.
func exactNanos(at float64) (uint64, bool) {
	if math.IsNaN(at) || math.IsInf(at, 0) || math.Signbit(at) {
		return 0, false
	}
	x := new(big.Rat).Mul(new(big.Rat).SetFloat64(at), big.NewRat(1e9, 1))
	floor := new(big.Int).Quo(x.Num(), x.Denom())
	for _, ns := range []*big.Int{floor, new(big.Int).Add(floor, big.NewInt(1))} {
		if !ns.IsUint64() || ns.Uint64() >= 1<<53 {
			continue
		}
		if back, _ := new(big.Rat).SetFrac(ns, big.NewInt(1e9)).Float64(); back == at {
			return ns.Uint64(), true
		}
	}
	return 0, false
}

// checkCaptureTime writes a record at t and reports whether the writer
// took it. It must take t if t is a whole ns below 2^51, and take nothing
// exactNanos does not; what it takes it stores as that ns and reads back
// bit for bit.
func checkCaptureTime(t *testing.T, at float64) (taken bool) {
	t.Helper()
	ns, exact := exactNanos(at)
	var out bytes.Buffer
	cw := NewCaptureWriter(&out)
	h := udpHeader()
	err := cw.Write(at, &h)
	switch {
	case err == nil && !exact:
		t.Fatalf("writer took t = %v (%#x), which no whole ns below 2^53 is", at, math.Float64bits(at))
	case err != nil && exact && ns < 1<<51:
		t.Fatalf("writer refused t = %v, %d ns: %v", at, ns, err)
	case err != nil:
		return false
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	if rec := out.Bytes()[pcapHeaderLen:]; ns < 1<<51 && (le.Uint32(rec) != uint32(ns/1e9) || le.Uint32(rec[4:]) != uint32(ns%1e9)) {
		t.Fatalf("t = %v stored as %d s %d ns, want %d ns", at, le.Uint32(rec), le.Uint32(rec[4:]), ns)
	}
	if back, err := NewCaptureReader(&out).Next(&h); err != nil || math.Float64bits(back) != math.Float64bits(at) {
		t.Fatalf("t = %v read back %v, %v", at, back, err)
	}
	return true
}

// FuzzCaptureTime holds the writer's time rule (checkCaptureTime) on any
// float64 — the one the input's bits are — and on ns/10^9 for the ns its
// low 51 bits spell, which the writer must take. The seeds are the rule's
// edges: signed zero, the smallest subnormal, 1 ns, flocd -gen's step,
// 0.1+0.2 and ten sums of 0.002 (17 digits, between nanoseconds), one ulp
// above 1 s, 2^51 and 2^53 ns, and 10^21.
func FuzzCaptureTime(f *testing.F) {
	tenth, sum := 0.1, 0.0 // variables, so that the sums round as float64s
	for i := 0; i < 10; i++ {
		sum += 0.002
	}
	for _, at := range []float64{0, math.Copysign(0, -1), 5e-324, 1e-9, 0.002, tenth + 0.2, sum,
		math.Nextafter(1, 2), float64(1<<51) / 1e9, float64(1<<53) / 1e9, 1e21} {
		f.Add(math.Float64bits(at))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		checkCaptureTime(t, math.Float64frombits(bits))
		checkCaptureTime(t, float64(bits&(1<<51-1))/1e9)
	})
}

// FuzzCaptureNumber: a time a generator spells in decimal seconds
// (benchmark/gen.go's i·20/10^6, flocd -gen's 2k/1000) and parses with
// strconv is one the writer takes and reads back bit for bit whenever the
// decimal is a whole number of nanoseconds below 2^51, for then both are
// ns/10^9 rounded once; any other parse is held to checkCaptureTime. The
// seeds are signed zero, whole and fractional nanoseconds, 15 to 17
// significant digits, decimals no float64 holds (0.3, 0.1, 2.675),
// exponents, and values out of range.
func FuzzCaptureNumber(f *testing.F) {
	for _, seed := range []string{
		"0", "-0", "0.0", "-0.000", "0.000001", "19.99998", "0.3", "-0.3", "0.1", "2.675",
		"123456789012345", "1234567890123456", "12345678901234567",
		"999999999999999", "9007199254740993", "123456789012345.6", "12345678.9012345",
		"0.000000000000000000001", "0.0000000000000000000001", "0.00000000000000000000001",
		"1.0000000000000000000000", "000", "1e22", "1e23", "1e-7", "1E+2", "4.9e-324", "1.8e308",
		"1e999", "-1e999", "179769313486231570000000000000000000000",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		at, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return
		}
		taken := checkCaptureTime(t, at)
		r, ok := new(big.Rat).SetString(text)
		if !ok || math.Signbit(at) {
			return
		}
		if ns := r.Mul(r, big.NewRat(1e9, 1)); ns.IsInt() && ns.Num().IsUint64() && ns.Num().Uint64() < 1<<51 && !taken {
			t.Fatalf("%q, a whole %v ns, parsed to %v, which the writer refused", text, ns.Num(), at)
		}
	})
}

// TestCaptureWriterRefusesInexactTimes: a time the writer cannot store as
// whole nanoseconds, or that would read back as another float64, is
// refused, writes nothing, and leaves the writer usable.
func TestCaptureWriterRefusesInexactTimes(t *testing.T) {
	sum, tenth := 0.0, 0.1
	for i := 0; i < 10; i++ {
		sum += 0.002
	}
	refused := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), -1, math.Copysign(0, -1),
		sum,                      // ten steps of 0.002: 0.020000000000000004
		tenth + 0.2,              // 0.30000000000000004
		1e-10,                    // rounds to 0 ns
		math.Nextafter(1, 2),     // 1 + 2^-52 s
		float64(1<<53) / 1e9,     // 2^53 ns
		float64(1<<53+2e9) / 1e9, // beyond it
		1e300,
	}
	accepted := []float64{0, 1e-9, 0.006, float64(1<<50) / 1e9}
	var out bytes.Buffer
	cw := NewCaptureWriter(&out)
	h := udpHeader()
	for _, at := range refused {
		if err := cw.Write(at, &h); err == nil {
			t.Errorf("writer accepted t = %v", at)
		}
	}
	for _, at := range accepted {
		if err := cw.Write(at, &h); err != nil {
			t.Errorf("writer refused t = %v: %v", at, err)
		}
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	if cw.Records() != len(accepted) {
		t.Fatalf("Records() = %d, want %d", cw.Records(), len(accepted))
	}
	cr := NewCaptureReader(&out)
	for _, at := range accepted {
		if back, err := cr.Next(new(Header)); err != nil || math.Float64bits(back) != math.Float64bits(at) {
			t.Fatalf("t = %v read back %v, %v", at, back, err)
		}
	}
	if _, err := cr.Next(new(Header)); err != io.EOF {
		t.Fatalf("refused times left records behind: %v", err)
	}
}

// TestCaptureReaderRefusesOtherFormats: input that does not start with the
// global header — an NDJSON capture from before captures were pcap, an
// empty or cut file, a microsecond or big-endian pcap, another version or
// link type — fails at once in both modes with ErrNotCapture, is not
// counted as malformed records, and keeps failing.
func TestCaptureReaderRefusesOtherFormats(t *testing.T) {
	with := func(off int, b ...byte) []byte {
		hdr := append([]byte(nil), goldenPcapHeader...)
		copy(hdr[off:], b)
		return hdr
	}
	for _, c := range []struct {
		name string
		in   []byte
	}{
		{"ndjson", []byte(`{"t":0.002,"wire":"0100050300000001000027100258000000650000000b00000001"}` + "\n")},
		{"empty", nil},
		{"short", goldenPcapHeader[:pcapHeaderLen-1]},
		{"microsecond", with(0, 0xd4, 0xc3, 0xb2, 0xa1)},
		{"big-endian", with(0, 0xa1, 0xb2, 0x3c, 0x4d)},
		{"version", with(6, 0x03)},
		{"ethernet", with(20, 0x01)},
	} {
		for _, lenient := range []bool{false, true} {
			cr := NewCaptureReader(bytes.NewReader(c.in))
			cr.SkipMalformed(lenient)
			for i := 0; i < 2; i++ {
				if _, err := cr.Next(new(Header)); !errors.Is(err, ErrNotCapture) {
					t.Errorf("%s (lenient %v), read %d: err = %v, want ErrNotCapture", c.name, lenient, i, err)
				}
			}
			if cr.Malformed() != 0 || cr.Line() != 0 {
				t.Errorf("%s (lenient %v): %d malformed over %d records, want none", c.name, lenient, cr.Malformed(), cr.Line())
			}
		}
	}
}

// TestCaptureReaderOversizedLine puts a 2 MiB record between two good
// ones. The reader must skip it by its declared length — counted once as
// framing in lenient mode — and carry on, name it in strict mode, and
// discard an over-long record without allocating.
func TestCaptureReaderOversizedLine(t *testing.T) {
	good := frameRecord(t, 1e9, udpHeader())
	huge := rawRecord(1, 0, 2<<20, 2<<20, make([]byte, 2<<20))
	input := pcapFile(good, huge, good)

	cr := NewCaptureReader(bytes.NewReader(input))
	cr.SkipMalformed(true)
	var h Header
	n := 0
	for {
		_, err := cr.Next(&h)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("lenient reader surfaced error: %v", err)
		}
		n++
	}
	if n != 2 || cr.Line() != 3 {
		t.Fatalf("decoded %d records of %d, want 2 of 3", n, cr.Line())
	}
	if byKind := cr.MalformedByKind(); cr.Malformed() != 1 || byKind[ErrKindFraming] != 1 {
		t.Fatalf("malformed counts %v, want one framing record", byKind)
	}

	cr = NewCaptureReader(bytes.NewReader(input))
	if _, err := cr.Next(&h); err != nil {
		t.Fatalf("strict reader failed on the good first record: %v", err)
	}
	if _, err := cr.Next(&h); err == nil || !strings.Contains(err.Error(), "record 2") {
		t.Fatalf("strict reader on the oversized record: err = %v, want record 2 named", err)
	}

	const runs = 10
	over := rawRecord(1, 0, 256<<10, 256<<10, make([]byte, 256<<10))
	input = pcapFile()
	for i := 0; i <= runs; i++ {
		input = append(append(input, over...), good...)
	}
	cr = NewCaptureReader(bytes.NewReader(input))
	cr.SkipMalformed(true)
	if avg := testing.AllocsPerRun(runs, func() {
		if _, err := cr.Next(&h); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("skipping an over-long record allocates %.1f times, want 0", avg)
	}
}

// FuzzCaptureRecord holds the capture codec to two properties. Encode
// then decode is the identity: any header Decode accepts, written at
// ns/1e9 s for any ns below 2^51, and at the float64 the input's bits are
// if the writer takes it, reads back as the same header at the same time,
// bit for bit. And any bytes after the global header are, record by
// record, either decoded or counted under one ErrorKind in lenient mode —
// the records the strict reader rejects, from the first it names — and
// never panic the reader; a capture whose every record is accepted reads
// without allocating.
func FuzzCaptureRecord(f *testing.F) {
	frame, err := MarshalAppend(nil, &Header{Version: Version1, Kind: netsim.KindUDP, Length: 9})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint64(2_000_000), frame, rawRecord(0, 2_000_000, uint32(len(frame)), uint32(len(frame)), frame))
	f.Fuzz(func(t *testing.T, tbits uint64, hdr, records []byte) {
		var h Header
		if n, err := Decode(hdr, &h); err == nil && n == len(hdr) {
			checkCaptureRoundTrip(t, float64(tbits&(1<<51-1))/1e9, h, true)
			checkCaptureRoundTrip(t, math.Float64frombits(tbits), h, false)
		}
		checkCaptureRecords(t, pcapFile(records))
	})
}

// checkCaptureRoundTrip writes h at t and reads it back; must says the
// writer has to take t.
func checkCaptureRoundTrip(t *testing.T, at float64, h Header, must bool) {
	t.Helper()
	var out bytes.Buffer
	cw := NewCaptureWriter(&out)
	if err := cw.Write(at, &h); err != nil {
		if must {
			t.Fatalf("writer refused t = %v (%d ns): %v", at, uint64(math.Round(at*1e9)), err)
		}
		return
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	var back Header
	cr := NewCaptureReader(&out)
	if backAt, err := cr.Next(&back); err != nil || math.Float64bits(backAt) != math.Float64bits(at) || back != h {
		t.Fatalf("round trip of t = %v, %+v gave t = %v, %+v, err %v", at, h, backAt, back, err)
	}
	if _, err := cr.Next(&back); err != io.EOF {
		t.Fatalf("one record read back as more: %v", err)
	}
}

// checkCaptureRecords reads capture in both modes and checks that the
// lenient reader decodes what the strict one does up to its first
// rejection, and counts every record it does not decode under exactly one
// ErrorKind.
func checkCaptureRecords(t *testing.T, capture []byte) {
	t.Helper()
	strict := NewCaptureReader(bytes.NewReader(capture))
	var h Header
	k := 0
	var strictErr error
	for {
		if _, strictErr = strict.Next(&h); strictErr != nil {
			break
		}
		k++
	}
	if strictErr != io.EOF && !strings.Contains(strictErr.Error(), fmt.Sprintf("record %d:", k+1)) {
		t.Fatalf("strict reader's error after %d records does not name record %d: %v", k, k+1, strictErr)
	}
	lenient := NewCaptureReader(bytes.NewReader(capture))
	lenient.SkipMalformed(true)
	n := 0
	for {
		_, err := lenient.Next(&h)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("lenient reader surfaced error: %v", err)
		}
		if n++; n <= k && lenient.Malformed() != 0 {
			t.Fatalf("lenient reader skipped a record the strict reader decoded")
		}
	}
	byKind := lenient.MalformedByKind()
	var sum int64
	for _, c := range byKind {
		sum += c
	}
	if byKind[ErrKindNone] != 0 || sum != lenient.Malformed() || int64(n)+sum != int64(lenient.Line()) {
		t.Fatalf("%d decoded, malformed by kind %v, over %d records", n, byKind, lenient.Line())
	}
	if (strictErr == io.EOF) != (sum == 0) {
		t.Fatalf("strict reader ended with %v, lenient reader counted %d malformed", strictErr, sum)
	}
	if strictErr == io.EOF {
		// One reader for the warm-up run and one for the measured run,
		// each made before measuring: NewCaptureReader allocates its buffer.
		readers := [2]*CaptureReader{NewCaptureReader(bytes.NewReader(capture)), NewCaptureReader(bytes.NewReader(capture))}
		run := 0
		if avg := testing.AllocsPerRun(1, func() {
			cr := readers[run]
			run++
			for {
				if _, err := cr.Next(&h); err != nil {
					break
				}
			}
		}); avg != 0 {
			t.Fatalf("reading %d accepted records allocates %.0f times", k, avg)
		}
	}
}

// refRecord reads the record at the start of b by the libpcap format
// alone, the reference FuzzCaptureLine holds the reader to: a 16-byte
// header whose nanoseconds are below 10^9, whose time is below 2^53 ns
// (the writer's range) and whose captured length equals the original and
// fits the global header's snaplen, then that many bytes, one whole shim
// header; its time is sec + nsec/10^9 rounded once. It returns the record's length, or ok false if b holds none.
func refRecord(b []byte, h *Header) (at float64, n int, ok bool) {
	le := binary.LittleEndian
	if len(b) < recordHeaderLen {
		return 0, 0, false
	}
	sec, nsec, incl, orig := le.Uint32(b), le.Uint32(b[4:]), le.Uint32(b[8:]), le.Uint32(b[12:])
	if nsec >= 1e9 || uint64(sec)*1e9+uint64(nsec) >= 1<<53 || incl != orig || incl > le.Uint32(goldenPcapHeader[16:]) || uint64(len(b)) < recordHeaderLen+uint64(incl) {
		return 0, 0, false
	}
	n = recordHeaderLen + int(incl)
	if used, err := Decode(b[recordHeaderLen:n], h); err != nil || used != int(incl) {
		return 0, 0, false
	}
	at, _ = big.NewRat(int64(sec)*1e9+int64(nsec), 1e9).Float64()
	return at, n, true
}

// FuzzCaptureLine checks the strict reader and the writer against
// refRecord: record by record — a line, as CaptureReader.Line counts
// them — the reader decodes what the reference does, to the same time bit
// for bit and the same header, and fails where it fails; and whatever the
// writer takes (FuzzCaptureTime says which times) the reference reads
// back as written. The seeds keep the names they had when records were
// text lines, each on the record that now holds or breaks the same way.
func FuzzCaptureLine(f *testing.F) {
	frame, err := MarshalAppend(nil, &Header{Version: Version1, Kind: netsim.KindUDP, Length: 9})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(rawRecord(1, 0, uint32(len(frame)), uint32(len(frame)), frame), 0.002, frame)
	f.Fuzz(func(t *testing.T, records []byte, at float64, hdr []byte) {
		checkRecordsAgainstReference(t, records)

		var h Header
		if n, err := Decode(hdr, &h); err != nil || n != len(hdr) {
			return
		}
		var out bytes.Buffer
		cw := NewCaptureWriter(&out)
		if cw.Write(at, &h) != nil {
			return
		}
		if err := cw.Flush(); err != nil {
			t.Fatal(err)
		}
		var back Header
		if !bytes.HasPrefix(out.Bytes(), goldenPcapHeader) {
			t.Fatalf("writer's global header is % x", out.Bytes()[:min(out.Len(), pcapHeaderLen)])
		}
		rec := out.Bytes()[pcapHeaderLen:]
		if backAt, n, ok := refRecord(rec, &back); !ok || n != len(rec) || math.Float64bits(backAt) != math.Float64bits(at) || back != h {
			t.Fatalf("writer's record % x for t = %v, %+v: reference reads t = %v, %+v (ok %v, %d of %d bytes)", rec, at, h, backAt, back, ok, n, len(rec))
		}
	})
}

// checkRecordsAgainstReference reads records, after a global header, with
// the strict reader and with refRecord side by side until either stops.
func checkRecordsAgainstReference(t *testing.T, records []byte) {
	t.Helper()
	cr := NewCaptureReader(bytes.NewReader(pcapFile(records)))
	for i := 1; ; i++ {
		var got, want Header
		at, err := cr.Next(&got)
		refAt, n, ok := refRecord(records, &want)
		switch {
		case err == io.EOF:
			if len(records) != 0 {
				t.Fatalf("reader ended before record %d with %d bytes left", i, len(records))
			}
			return
		case err != nil:
			if ok {
				t.Fatalf("reader rejects record %d (%v); the reference reads t = %v, %+v", i, err, refAt, want)
			}
			return
		case !ok:
			t.Fatalf("reader reads record %d as t = %v, %+v; the reference rejects it", i, at, got)
		case math.Float64bits(at) != math.Float64bits(refAt) || got != want:
			t.Fatalf("record %d: reader reads t = %v, %+v; the reference t = %v, %+v", i, at, got, refAt, want)
		}
		records = records[n:]
	}
}
