package wire

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"

	"floc/internal/netsim"
	"floc/internal/pathid"
	"floc/internal/rng"
)

// refRecord and refScanLine are the capture codec as it stood on
// encoding/json: the reference the hand-written scanner and writer are
// checked against. The reference takes more than the scanner (all of
// JSON); it must never take less, and must agree wherever both accept.
type refRecord struct {
	T    float64 `json:"t"`
	Wire string  `json:"wire"`
}

func refScanLine(raw []byte, h *Header) (t float64, frame []byte, err error) {
	var rec refRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		return 0, nil, err
	}
	if len(rec.Wire) > 2*MaxEncodedLen {
		return 0, nil, fmt.Errorf("frame longer than any header (%d hex chars)", len(rec.Wire))
	}
	frame, err = hex.DecodeString(rec.Wire)
	if err != nil {
		return 0, nil, err
	}
	used, err := Decode(frame, h)
	if err != nil {
		return 0, nil, err
	}
	if used != len(frame) {
		return 0, nil, fmt.Errorf("%d trailing bytes after header", len(frame)-used)
	}
	return rec.T, frame, nil
}

// checkLineAgainstReference asserts property (a) on one line: whatever
// the scanner accepts, the reference accepts with the same time (bit for
// bit), header and frame bytes.
func checkLineAgainstReference(t *testing.T, line []byte) (accepted bool) {
	t.Helper()
	cr := NewCaptureReader(strings.NewReader(""))
	var got, want Header
	at, kind, err := cr.scanLine(line, &got)
	if err != nil {
		if kind == ErrKindNone {
			t.Fatalf("line %q rejected (%v) without an error kind", line, err)
		}
		return false
	}
	refAt, frame, refErr := refScanLine(line, &want)
	if refErr != nil {
		t.Fatalf("scanner accepts %q, encoding/json reference rejects it: %v", line, refErr)
	}
	if math.Float64bits(at) != math.Float64bits(refAt) {
		t.Fatalf("line %q: t = %v (%#x), reference %v (%#x)", line, at, math.Float64bits(at), refAt, math.Float64bits(refAt))
	}
	if got != want || !bytes.Equal(cr.buf[:len(frame)], frame) {
		t.Fatalf("line %q: header %+v, reference %+v", line, got, want)
	}
	return true
}

// FuzzCaptureLine checks the scanner and the writer against the
// encoding/json reference: (a) scanner accepts ⇒ reference accepts with
// identical results; (b) every line the writer produces is accepted by
// both and round-trips; (c) the writer's bytes are json.Marshal's.
func FuzzCaptureLine(f *testing.F) {
	frame, err := MarshalAppend(nil, &Header{Version: Version1, Kind: netsim.KindUDP, Length: 9})
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(`{"t":1,"wire":"`+hex.EncodeToString(frame)+`"}`), 0.002, frame)
	f.Fuzz(func(t *testing.T, line []byte, at float64, hdr []byte) {
		checkLineAgainstReference(t, line)

		var h Header
		if _, err := Decode(hdr, &h); err != nil {
			return
		}
		at = math.Abs(at)
		var out bytes.Buffer
		cw := NewCaptureWriter(&out)
		err := cw.Write(at, &h)
		if math.IsNaN(at) || math.IsInf(at, 0) {
			if err == nil {
				t.Fatalf("writer accepted t = %v", at)
			}
			return
		}
		if err != nil {
			t.Fatalf("writer rejected t = %v, %+v: %v", at, h, err)
		}
		if err := cw.Flush(); err != nil {
			t.Fatal(err)
		}
		canon, err := MarshalAppend(nil, &h)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(refRecord{T: at, Wire: hex.EncodeToString(canon)})
		if err != nil {
			t.Fatal(err)
		}
		if got := out.Bytes(); !bytes.Equal(got, append(want, '\n')) {
			t.Fatalf("writer emitted %q, json.Marshal %q", got, want)
		}
		if !checkLineAgainstReference(t, out.Bytes()) {
			t.Fatalf("scanner rejects the writer's own line %q", out.Bytes())
		}
		var back Header
		cr := NewCaptureReader(&out)
		if backAt, err := cr.Next(&back); err != nil || math.Float64bits(backAt) != math.Float64bits(at) || back != h {
			t.Fatalf("round trip of t = %v, %+v gave t = %v, %+v, err %v", at, h, backAt, back, err)
		}
	})
}

// generalScanLine is scanLine with scanGeneral alone — how every line was
// read before the template existed: the reference FuzzCaptureTemplate
// holds scanLine to.
func generalScanLine(cr *CaptureReader, raw []byte, h *Header) (float64, ErrorKind, error) {
	t, frameLen, kind, err := cr.scanGeneral(raw)
	if err != nil {
		return 0, kind, err
	}
	used, err := Decode(cr.buf[:frameLen], h)
	if err != nil {
		return 0, KindOfError(err), err
	}
	if used != frameLen {
		return 0, ErrKindFraming, errTrailing(frameLen - used)
	}
	return t, ErrKindNone, nil
}

// checkTemplateAgainstGeneral asserts, on one line, that the template
// changes nothing observable: what scanTemplate accepts, scanGeneral
// accepts with a bit-identical time and identical frame bytes, and
// scanLine — template first — returns what generalScanLine returns: the
// same time, header, ErrorKind and error, whether the template took the
// line or declined it.
func checkTemplateAgainstGeneral(t *testing.T, line []byte) {
	t.Helper()
	tmpl := NewCaptureReader(strings.NewReader(""))
	at, frameLen, took := tmpl.scanTemplate(line)
	gen := NewCaptureReader(strings.NewReader(""))
	if took {
		genAt, genLen, _, err := gen.scanGeneral(line)
		if err != nil {
			t.Fatalf("template takes %q, the general scanner rejects it: %v", line, err)
		}
		if math.Float64bits(at) != math.Float64bits(genAt) {
			t.Fatalf("line %q: template t = %v (%#x), general %v (%#x)", line, at, math.Float64bits(at), genAt, math.Float64bits(genAt))
		}
		if !bytes.Equal(tmpl.buf[:frameLen], gen.buf[:genLen]) {
			t.Fatalf("line %q: template frame %x, general %x", line, tmpl.buf[:frameLen], gen.buf[:genLen])
		}
	}
	var got, want Header
	gotAt, gotKind, gotErr := tmpl.scanLine(line, &got)
	wantAt, wantKind, wantErr := generalScanLine(gen, line, &want)
	if gotKind != wantKind || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("line %q (template took it: %v): %v, %v; general scanner %v, %v", line, took, gotKind, gotErr, wantKind, wantErr)
	}
	if math.Float64bits(gotAt) != math.Float64bits(wantAt) || got != want {
		t.Fatalf("line %q (template took it: %v): t = %v, %+v; general scanner t = %v, %+v", line, took, gotAt, got, wantAt, want)
	}
}

// FuzzCaptureTemplate binds the template to the general scanner
// (checkTemplateAgainstGeneral). The seeds are the writer's own lines and
// one line per way of falling through: whitespace, CRLF, no final LF,
// swapped members, an exponent, a sign, leading zeros, a bare point, 16
// and more significant digits, 23 fraction digits, odd, off-table,
// uppercase and over-long hex, and bytes after the closing brace.
func FuzzCaptureTemplate(f *testing.F) {
	h := sampleHeader()
	frame, err := MarshalAppend(nil, &h)
	if err != nil {
		f.Fatal(err)
	}
	hx := hex.EncodeToString(frame)
	line := func(t, wire string) string { return `{"t":` + t + `,"wire":"` + wire + "\"}\n" }
	for _, seed := range []string{
		line("0.00002", hx), line("19.99998", hx), line("0", hx), line("123456789012345", hx),
		line("0.0000000000000000000001", hx),
		` {"t":1,"wire":"` + hx + "\"}\n", `{"t": 1,"wire":"` + hx + "\"}\n", `{"t":1,"wire":"` + hx + "\"} \n",
		`{"t":1,"wire":"` + hx + "\"}\r\n", `{"t":1,"wire":"` + hx + `"}`, `{"wire":"` + hx + `","t":1}` + "\n",
		line("1e-7", hx), line("1E2", hx), line("-0", hx), line("-1.5", hx), line("00.1", hx), line("01", hx),
		line("1.", hx), line(".5", hx), line("1234567890123456", hx), line("0.1234567890123456", hx),
		line("1.000000000000000", hx), line("0.00000000000000000000001", hx), line("", hx),
		line("1", hx[1:]), line("1", hx[:len(hx)-2]+"zz"), line("1", strings.ToUpper(hx)),
		line("1", strings.Repeat("00", MaxEncodedLen)), line("1", strings.Repeat("00", MaxEncodedLen+1)),
		line("1", hx) + "x", `{"t":1,"wire":"` + hx + "\"}}\n", `{"t":1,"wire":"` + hx, `{"t":1`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(checkTemplateAgainstGeneral)
}

// TestCaptureTemplateTakesWriterLines: every short-decimal time but 0
// takes the writer's short-decimal path, and every line CaptureWriter
// emits for one takes the template, so that an edit which sends the times
// to strconv or the writer's own lines to the general scanner fails here,
// not only as a slower set-up or replay. The times are replay_mix's whole
// grid (packet i of 10⁶ at i·20/10⁶ s, benchmark/gen.go) and 10⁵ random
// decimals of at most 15
// significant digits, none below 1e-6 (there the writer's form has an
// exponent); the frames are the sample header's and the longest there is.
func TestCaptureTemplateTakesWriterLines(t *testing.T) {
	longest := sampleHeader()
	longest.PathLen = MaxPathLen
	for i := range longest.Path {
		longest.Path[i] = pathid.ASN(0xfffff000 + i)
	}
	if longest.EncodedLen() != MaxEncodedLen {
		t.Fatalf("longest header encodes to %d bytes, want %d", longest.EncodedLen(), MaxEncodedLen)
	}
	times := make([]float64, 0, 1_100_000)
	for i := 0; i < 1_000_000; i++ {
		times = append(times, float64(i)*20/1e6)
	}
	src := rng.New(25)
	for len(times) < cap(times) {
		digits := 1 + src.Intn(15)
		mant := src.Uint64n(uint64(pow10[digits]))
		if at := float64(mant) / pow10[src.Intn(digits+7)]; at == 0 || at >= 1e-6 {
			times = append(times, at)
		}
	}
	sort.Float64s(times)
	for _, at := range times {
		if _, _, ok := shortDecimal(at); !ok && at != 0 {
			t.Fatalf("t = %v falls through to strconv in the writer", at)
		}
	}
	for _, h := range []Header{sampleHeader(), longest} {
		var out bytes.Buffer
		cw := NewCaptureWriter(&out)
		cr := NewCaptureReader(strings.NewReader(""))
		for _, at := range times {
			out.Reset()
			if err := cw.Write(at, &h); err != nil {
				t.Fatal(err)
			}
			if err := cw.Flush(); err != nil {
				t.Fatal(err)
			}
			if _, _, ok := cr.scanTemplate(out.Bytes()); !ok {
				t.Fatalf("the writer's line %q for t = %v falls through to the general scanner", out.Bytes(), at)
			}
		}
	}
}

// TestCaptureLineGrammar pins the accepted grammar and the inputs that
// encoding/json took and the scanner counts as framing errors.
func TestCaptureLineGrammar(t *testing.T) {
	frame, err := MarshalAppend(nil, &Header{Version: Version1, Kind: netsim.KindUDP, Length: 9})
	if err != nil {
		t.Fatal(err)
	}
	hx := hex.EncodeToString(frame)
	accept := []struct {
		line string
		t    float64
	}{
		{`{"t":1,"wire":"` + hx + `"}`, 1},
		{`{"wire":"` + hx + `","t":2.5}`, 2.5}, // swapped members
		{" {\t\"t\" : 1e3 , \"wire\" : \"" + hx + "\" } ", 1000},
		{`{"t":1E-2,"wire":"` + strings.ToUpper(hx) + `"}`, 0.01},
		{`{"t":-0,"wire":"` + hx + `"}`, math.Copysign(0, -1)},
		{`{"t":0.000001,"wire":"` + hx + `"}`, 1e-6},
		{`{"t":1e-999,"wire":"` + hx + `"}`, 0}, // underflow is not a range error
		{`{"t":12.5e+1,"wire":"` + hx + `"}` + "\r\n", 125},
	}
	for _, c := range accept {
		if !checkLineAgainstReference(t, []byte(c.line)) {
			t.Errorf("line %q rejected", c.line)
			continue
		}
		var h Header
		cr := NewCaptureReader(strings.NewReader(c.line))
		if at, err := cr.Next(&h); err != nil || math.Float64bits(at) != math.Float64bits(c.t) {
			t.Errorf("line %q: t = %v, err %v; want %v", c.line, at, err, c.t)
		}
	}

	framing := []string{
		// JSON that encoding/json took and the narrowed grammar does not.
		`{"T":1,"wire":"` + hx + `"}`,           // case-folded key
		`{"\u0074":1,"wire":"` + hx + `"}`,      // escaped key
		`{"t":1,"wire":"\u0030` + hx[1:] + `"}`, // escaped hex digit
		`{"t":1,"t":2,"wire":"` + hx + `"}`,     // duplicate member
		`{"t":1,"wire":"` + hx + `","x":0}`,     // extra member
		`{"t":null,"wire":"` + hx + `"}`,        // null members
		`{"t":1,"wire":null}`,
		`{"wire":"` + hx + `"}`, // missing members
		`{"t":1}`,
		`{}`,
		// Numbers: out of float64 range, then off the RFC 8259 grammar.
		`{"t":1e999,"wire":"` + hx + `"}`,
		`{"t":01,"wire":"` + hx + `"}`,
		`{"t":+1,"wire":"` + hx + `"}`,
		`{"t":.5,"wire":"` + hx + `"}`,
		`{"t":1.,"wire":"` + hx + `"}`,
		`{"t":1e,"wire":"` + hx + `"}`,
		`{"t":0x10,"wire":"` + hx + `"}`,
		`{"t":Inf,"wire":"` + hx + `"}`,
		`{"t":1_0,"wire":"` + hx + `"}`,
		`{"t":"1","wire":"` + hx + `"}`,
		// Broken structure.
		`{"t":1,"wire":"` + hx + `"} x`,
		`{"t":1,"wire":"` + hx + `"}{`,
		`{"t":1,"wire":"` + hx + `"`,
		`{"t":1 "wire":"` + hx + `"}`,
		`[{"t":1,"wire":"` + hx + `"}]`,
		`   `,
		// Frames broken before the codec sees them.
		`{"t":1,"wire":"` + hx[:len(hx)-1] + `"}`,   // odd hex
		`{"t":1,"wire":"` + hx[:len(hx)-2] + `zz"}`, // not hex
		`{"t":1,"wire":"` + hx + `00"}`,             // trailing bytes
		`{"t":1,"wire":"` + strings.Repeat("00", MaxEncodedLen+1) + `"}`,
	}
	reject := map[ErrorKind][]string{
		ErrKindFraming: framing,
		ErrKindShort:   {`{"t":1,"wire":"` + hx[:len(hx)-2] + `"}`, `{"t":1,"wire":""}`},
		ErrKindVersion: {`{"t":1,"wire":"ff` + hx[2:] + `"}`},
	}
	for want, lines := range reject {
		for _, line := range lines {
			if checkLineAgainstReference(t, []byte(line)) {
				t.Errorf("line %q accepted", line)
			}
			cr := NewCaptureReader(strings.NewReader(""))
			if _, kind, _ := cr.scanLine([]byte(line), new(Header)); kind != want {
				t.Errorf("line %q classified %v, want %v", line, kind, want)
			}
		}
	}
}

// captureTimeEdges are the edges of the writer's short-decimal path: its
// lower bound and the float below it; 0.00014, where t·10^5 is not
// integral in float64; 0.1+0.2, 17 digits; the largest 15-digit integer,
// the upper bound and a 16-digit time below it; a 15-digit time that needs
// 20 fraction digits; 2^53, the smallest subnormal and 1e21.
var captureTimeEdges = []float64{1e-6, math.Nextafter(1e-6, 0), 0.00014, 0.1 + 0.2,
	999999999999999, 1e15, 123456789012345.6, 1.23456789012345e-6, 1 << 53, 5e-324, 1e21}

// TestCaptureWriterMatchesJSON walks the float formatting rule's edges:
// the writer's line must be json.Marshal's, byte for byte.
func TestCaptureWriterMatchesJSON(t *testing.T) {
	h := sampleHeader()
	frame, err := MarshalAppend(nil, &h)
	if err != nil {
		t.Fatal(err)
	}
	times := append([]float64{0, 1e-320, 1e-9, 9.99e-7, 0.002, 1, 12345.678,
		1e20, 9.999999999999999e20, 1.5e300, math.MaxFloat64}, captureTimeEdges...)
	for _, at := range times {
		var out bytes.Buffer
		cw := NewCaptureWriter(&out)
		if err := cw.Write(at, &h); err != nil {
			t.Fatal(err)
		}
		if err := cw.Flush(); err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(refRecord{T: at, Wire: hex.EncodeToString(frame)})
		if err != nil {
			t.Fatal(err)
		}
		if got := out.String(); got != string(want)+"\n" {
			t.Errorf("t = %v: writer emitted %q, json.Marshal %q", at, got, want)
		}
	}
	cw := NewCaptureWriter(io.Discard)
	for _, at := range []float64{math.NaN(), math.Inf(1)} {
		if err := cw.Write(at, &h); err == nil {
			t.Errorf("writer accepted t = %v", at)
		}
	}
}

// TestCaptureReaderOversizedLine puts a 2 MiB line between two good
// records. A bufio.Scanner stopped for good there; the reader must
// consume the line, count it once as framing in lenient mode and carry
// on, and name it in strict mode.
func TestCaptureReaderOversizedLine(t *testing.T) {
	frame, err := MarshalAppend(nil, &Header{Version: Version1, Kind: netsim.KindUDP, Length: 9})
	if err != nil {
		t.Fatal(err)
	}
	good := `{"t":1,"wire":"` + hex.EncodeToString(frame) + `"}`
	input := good + "\n" + `{"t":1,"wire":"` + strings.Repeat("0", 2<<20) + `"}` + "\n" + good + "\n"

	cr := NewCaptureReader(strings.NewReader(input))
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
		t.Fatalf("decoded %d records over %d lines, want 2 over 3", n, cr.Line())
	}
	if byKind := cr.MalformedByKind(); cr.Malformed() != 1 || byKind[ErrKindFraming] != 1 {
		t.Fatalf("malformed counts %v, want one framing line", byKind)
	}

	cr = NewCaptureReader(strings.NewReader(input))
	if _, err := cr.Next(&h); err != nil {
		t.Fatalf("strict reader failed on the good first line: %v", err)
	}
	_, err = cr.Next(&h)
	if !errors.Is(err, errLineTooLong) || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("strict reader on the oversized line: err = %v, want line 2 too long", err)
	}
}

// checkNumber asserts that parseNumber agrees with strconv.ParseFloat, bit
// for bit and error for error, on text cutNumber accepts whole; it reports
// whether the text was such a number.
func checkNumber(t *testing.T, text string) bool {
	t.Helper()
	num, rest := cutNumber([]byte(text))
	if len(num) == 0 || len(rest) != 0 {
		return false
	}
	got, gotErr := parseNumber(num)
	want, wantErr := strconv.ParseFloat(text, 64)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%q: parseNumber error %v, strconv error %v", text, gotErr, wantErr)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%q: parseNumber = %v (%#x), strconv = %v (%#x)", text, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	return true
}

// FuzzCaptureNumber holds the reader's number conversion to strconv's on
// everything the grammar lets through. The seeds sit on the edges of the
// exact path: signed zero, leading-zero fractions, 15/16/17 significant
// digits, the longest exact fraction, exponents, and 0.3, which a
// multiply by 10^-k (instead of the divide by 10^k) gets wrong.
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
	f.Fuzz(func(t *testing.T, text string) { checkNumber(t, text) })
}

// FuzzCaptureTime holds the writer's rendering of any finite float64 to
// json.Marshal's bytes, and the reader's conversion of the rendering back
// to the same float64, bit for bit, on and off the short-decimal path: the
// float64 the input's bits are, and the short decimal they spell (their
// low 50 bits as digits, the top byte as a fraction length), which random
// bits almost never are.
func FuzzCaptureTime(f *testing.F) {
	for _, at := range captureTimeEdges {
		f.Add(math.Float64bits(at))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		checkCaptureTime(t, math.Float64frombits(bits))
		checkCaptureTime(t, float64(bits&(1<<50-1)%1e15)/pow10[bits>>56%uint64(len(pow10))])
	})
}

// checkCaptureTime asserts FuzzCaptureTime's two properties on one time.
func checkCaptureTime(t *testing.T, at float64) {
	t.Helper()
	if math.IsNaN(at) || math.IsInf(at, 0) {
		return
	}
	text := appendJSONFloat(nil, at)
	want, err := json.Marshal(at)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(text, want) {
		t.Fatalf("t = %v: writer renders %q, json.Marshal %q", at, text, want)
	}
	if !checkNumber(t, string(text)) {
		t.Fatalf("reader grammar rejects the writer's rendering %q of %v", text, at)
	}
	if back, err := parseNumber(text); err != nil || math.Float64bits(back) != math.Float64bits(at) {
		t.Fatalf("t = %v rendered %q read back %v (%v)", at, text, back, err)
	}
}

// TestCaptureTimeRoundTrip: what the writer renders, the reader's number
// conversion takes back to the same float64, for 10^5 random times of the
// kinds captures hold — short decimals (the exact path) and full-precision
// values (strconv's) — so rendering the result again is byte-identical.
func TestCaptureTimeRoundTrip(t *testing.T) {
	src := rng.New(3)
	for i := 0; i < 100000; i++ {
		var at float64
		switch i % 3 {
		case 0:
			at = float64(src.Intn(1_000_000)) * 20 / 1e6 // 0.00002-spaced, as replay_mix writes
		case 1:
			at = src.Float64() * 100
		default:
			at = math.Float64frombits(src.Uint64() &^ (1 << 63))
			if math.IsNaN(at) || math.IsInf(at, 0) {
				continue
			}
		}
		text := appendJSONFloat(nil, at)
		if !checkNumber(t, string(text)) {
			t.Fatalf("reader grammar rejects the writer's rendering %q of %v", text, at)
		}
		back, err := parseNumber(text)
		if err != nil || math.Float64bits(back) != math.Float64bits(at) {
			t.Fatalf("t = %v rendered %q read back %v (%v)", at, text, back, err)
		}
	}
}
