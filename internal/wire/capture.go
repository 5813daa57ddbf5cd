package wire

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
)

// A capture is NDJSON: one line per packet, holding the packet's arrival
// time in virtual seconds and its hex-encoded wire header,
//
//	{"t":0.002,"wire":"0100050300000001..."}
//
// The text form keeps captures hermetic, diffable, and greppable — the
// properties CI replay needs — at the cost of 2x+epsilon over raw binary.
// CaptureWriter is the only producer of captures, so the reader's grammar
// is what the writer emits plus the slack a hand edit plausibly adds
// (whitespace, member order), not all of JSON. DESIGN.md "Capture line
// grammar" has the grammar and the JSON it leaves out.
const (
	capturePrefix = `{"t":`
	captureMiddle = `,"wire":"`
	captureSuffix = "\"}\n"

	// maxCaptureLine bounds one capture line, terminator included. The
	// longest line the writer emits is under 256 bytes; the rest is slack
	// for hand-edited whitespace. A longer line is a framing error.
	maxCaptureLine = 64 << 10
)

// CaptureWriter writes NDJSON capture records.
type CaptureWriter struct {
	w     *bufio.Writer
	frame []byte
	line  []byte
	lastT float64
	n     int
}

// NewCaptureWriter returns a CaptureWriter on w. Call Flush when done.
func NewCaptureWriter(w io.Writer) *CaptureWriter {
	const floatSlack = 32 // the longest float64 rendering is 25 bytes
	return &CaptureWriter{
		w:     bufio.NewWriter(w),
		frame: make([]byte, 0, MaxEncodedLen),
		line:  make([]byte, 0, len(capturePrefix)+floatSlack+len(captureMiddle)+2*MaxEncodedLen+len(captureSuffix)),
	}
}

// errCaptureOrder reports a record older than its predecessor.
//
// floc:coldpath error construction is off the codec fast path
func errCaptureOrder(t, last float64) error {
	return fmt.Errorf("wire: capture time %v before previous record %v", t, last)
}

// errCaptureTime reports a time JSON cannot carry.
//
// floc:coldpath error construction is off the codec fast path
func errCaptureTime(t float64) error {
	return fmt.Errorf("wire: capture time %v is not a finite number", t)
}

// Write appends one record for h at time t. Records must be written in
// non-decreasing time order; Write rejects regressions so a capture is
// replayable as-is. It does not allocate.
//
// floc:hotpath
func (cw *CaptureWriter) Write(t float64, h *Header) error {
	if cw.n > 0 && t < cw.lastT {
		return errCaptureOrder(t, cw.lastT)
	}
	if math.IsInf(t, 0) || math.IsNaN(t) {
		return errCaptureTime(t)
	}
	frame, err := MarshalAppend(cw.frame[:0], h)
	if err != nil {
		return err
	}
	line := append(cw.line[:0], capturePrefix...)
	line = appendJSONFloat(line, t)
	line = append(line, captureMiddle...)
	line = hex.AppendEncode(line, frame)
	line = append(line, captureSuffix...)
	cw.line = line
	if _, err := cw.w.Write(line); err != nil {
		return err
	}
	cw.lastT = t
	cw.n++
	return nil
}

// appendJSONFloat appends t exactly as encoding/json renders a float64
// (the ES6 number-to-string rule): positional notation unless the
// magnitude is below 1e-6 or at least 1e21, and exponents not padded to
// two digits. Captures written before the codec left encoding/json and
// after it are therefore byte-identical.
//
// floc:hotpath
func appendJSONFloat(dst []byte, t float64) []byte {
	if mant, frac, ok := shortDecimal(t); ok {
		return appendDecimal(dst, mant, frac)
	}
	format := byte('f')
	if abs := math.Abs(t); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, t, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		// strconv writes e-09 where ES6 writes e-9.
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// shortDecimal returns, for a t in [1e-6, 1e15) that a decimal of at most
// 15 significant digits converts to, that decimal as mant·10^-frac with
// the fewest fraction digits: the digits of strconv's shortest 'f' form,
// found without its search. Decimals of 15 significant digits lie at
// least 10^-15 of their size apart and float64s at most 2^-52, so at most
// one such decimal value converts to t. If m, t to 15 significant digits,
// passes the reader's own conversion (exactDecimal), it is that value,
// and m without its trailing fraction zeros is its shortest form.
// Otherwise ok is false: t needs 16 or 17 digits, or lies outside the
// range (zero, negative, or where encoding/json writes an exponent).
//
// floc:hotpath
func shortDecimal(t float64) (mant uint64, frac int, ok bool) {
	if !(t >= 1e-6 && t < maxExactMant) {
		return 0, 0, false
	}
	// 2^e2 ≤ t < 2^(e2+1), and 78913/2^18 ≈ log10 2, so t's decimal exponent
	// is e2·log10 2 rounded down, or one more: frac leaves t·10^frac 15
	// integer digits.
	e2 := int(math.Float64bits(t)>>52) - 1023
	frac = 14 - (e2*78913)>>18
	x := t * pow10[frac]
	if x >= maxExactMant {
		frac--
		x = t * pow10[frac]
	}
	mant = uint64(math.Round(x))
	if f, exact := exactDecimal(mant, frac); !exact || math.Float64bits(f) != math.Float64bits(t) {
		return 0, 0, false
	}
	for _, p := range [...]int{8, 4, 2, 1} { // at most 14 trailing zeros
		if d := uint64(pow10[p]); frac >= p && mant%d == 0 {
			mant /= d
			frac -= p
		}
	}
	return mant, frac, true
}

// appendDecimal appends mant·10^-frac positionally, with frac fraction
// digits: "0." and leading zeros below one, no point when frac is 0.
//
// floc:hotpath
func appendDecimal(dst []byte, mant uint64, frac int) []byte {
	var buf [24]byte // "0." and 22 fraction digits, the longest exactDecimal takes
	i := len(buf)
	for n := 0; n < frac; n++ {
		i--
		buf[i] = '0' + byte(mant%10)
		mant /= 10
	}
	if frac > 0 {
		i--
		buf[i] = '.'
	}
	for {
		i--
		buf[i] = '0' + byte(mant%10)
		if mant /= 10; mant == 0 {
			return append(dst, buf[i:]...)
		}
	}
}

// Flush flushes buffered output.
func (cw *CaptureWriter) Flush() error { return cw.w.Flush() }

// Records returns how many records were written.
func (cw *CaptureWriter) Records() int { return cw.n }

// CaptureReader streams records out of an NDJSON capture. By default a
// malformed line fails the read; SkipMalformed switches to lenient mode,
// where bad lines are counted by error kind and skipped instead — what a
// long replay wants when one hand-edited line should not void the run.
// The reader buffers its input itself and does not allocate per record.
type CaptureReader struct {
	r         *bufio.Reader
	line      int
	buf       []byte
	lenient   bool
	malformed [NumErrorKinds]int64
}

// NewCaptureReader returns a CaptureReader on r.
func NewCaptureReader(r io.Reader) *CaptureReader {
	return &CaptureReader{r: bufio.NewReaderSize(r, maxCaptureLine), buf: make([]byte, MaxEncodedLen)}
}

// SkipMalformed switches the reader between strict (default: any bad
// line fails the read) and lenient (bad lines are counted and skipped).
func (cr *CaptureReader) SkipMalformed(on bool) { cr.lenient = on }

// Malformed returns the number of lines skipped in lenient mode.
func (cr *CaptureReader) Malformed() int64 {
	var n int64
	for _, c := range cr.malformed {
		n += c
	}
	return n
}

// MalformedByKind returns the per-ErrorKind counts of lines skipped in
// lenient mode; framing breakage (a line off the record grammar or over
// the length bound, bad hex, trailing bytes) counts under ErrKindFraming.
func (cr *CaptureReader) MalformedByKind() [NumErrorKinds]int64 { return cr.malformed }

// The framing errors a line can fail with before the codec sees bytes.
var (
	errRecordSyntax = errors.New(`not a {"t":<number>,"wire":"<hex>"} record`)
	errRecordMember = errors.New(`members must be "t" and "wire", once each, without escapes`)
	errRecordNumber = errors.New(`"t" is not an RFC 8259 number in float64 range`)
	errLineTooLong  = fmt.Errorf("line longer than %d bytes", maxCaptureLine)
)

// errFrameTooLong reports hex text no header could need.
//
// floc:coldpath error construction is off the codec fast path
func errFrameTooLong(hexLen int) error {
	return fmt.Errorf("frame longer than any header (%d hex chars)", hexLen)
}

// errTrailing reports bytes left over after the header.
//
// floc:coldpath error construction is off the codec fast path
func errTrailing(n int) error { return fmt.Errorf("%d trailing bytes after header", n) }

// lineError names the offending line in a strict-mode failure.
//
// floc:coldpath error construction is off the codec fast path
func (cr *CaptureReader) lineError(err error) error {
	return fmt.Errorf("wire: capture line %d: %w", cr.line, err)
}

// skipSpace returns b without its leading whitespace (JSON's: space, tab,
// CR, LF).
//
// floc:hotpath
func skipSpace(b []byte) []byte {
	for i, c := range b {
		if c != ' ' && c != '\t' && c != '\r' && c != '\n' {
			return b[i:]
		}
	}
	return b[:0]
}

// cutByte skips whitespace, then requires the structural byte c and
// returns what follows it.
//
// floc:hotpath
func cutByte(b []byte, c byte) ([]byte, bool) {
	b = skipSpace(b)
	if len(b) == 0 || b[0] != c {
		return b, false
	}
	return b[1:], true
}

// cutString skips whitespace, then requires a quoted string and returns
// its body and what follows the closing quote. The body is everything up
// to the first quote: an escape inside it is left for the caller to
// reject, since neither a key nor hex text can hold a backslash.
//
// floc:hotpath
func cutString(b []byte) (body, rest []byte, ok bool) {
	b, ok = cutByte(b, '"')
	if !ok {
		return nil, b, false
	}
	if i := bytes.IndexByte(b, '"'); i >= 0 {
		return b[:i], b[i+1:], true
	}
	return nil, b, false
}

// cutNumber splits b after the RFC 8259 number it starts with; num is
// empty if b does not start with one. strconv.ParseFloat alone would also
// take hex floats, infinities, underscores and a leading plus or dot.
//
// floc:hotpath
func cutNumber(b []byte) (num, rest []byte) {
	const (
		start = iota
		minus
		zero    // a number may end here
		integer // and here
		dot
		fraction // and here
		exp
		expSign
		exponent // and here
	)
	state, end := start, len(b)
scan:
	for i, c := range b {
		digit := c >= '0' && c <= '9'
		switch {
		case (state == start || state == minus) && c == '0':
			state = zero
		case (state == start || state == minus || state == integer) && digit:
			state = integer
		case state == start && c == '-':
			state = minus
		case (state == zero || state == integer) && c == '.':
			state = dot
		case (state == dot || state == fraction) && digit:
			state = fraction
		case (state == zero || state == integer || state == fraction) && (c == 'e' || c == 'E'):
			state = exp
		case state == exp && (c == '+' || c == '-'):
			state = expSign
		case (state == exp || state == expSign || state == exponent) && digit:
			state = exponent
		default:
			end = i
			break scan
		}
	}
	if state == zero || state == integer || state == fraction || state == exponent {
		return b[:end], b[end:]
	}
	return nil, b
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// maxExactMant bounds the digits, read as one integer, of a decimal the
// exact conversion takes: at most 15 significant digits, below 10^15 < 2^53.
const maxExactMant = 1e15

// exactDecimal is the short-decimal rule both reader paths and the writer
// share. The decimal mant·10^-frac, with mant below 10^15 and frac at most
// 22, converts to float64(mant) / 10^frac: both operands are exact float64
// values, so the one IEEE division rounds the decimal once, to the nearest
// float64, which is what strconv.ParseFloat returns (its own exact path).
// For any other decimal ok is false, and strconv converts it.
//
// floc:hotpath
func exactDecimal(mant uint64, frac int) (f float64, ok bool) {
	if mant >= maxExactMant || frac >= len(pow10) {
		return 0, false
	}
	return float64(mant) / pow10[frac], true
}

// parseNumber converts a number cutNumber has accepted: a plain decimal
// exactDecimal takes — every time CaptureWriter renders from a short
// decimal — without strconv's second scan of the text, anything else (an
// exponent, more digits, a fraction longer than pow10) with strconv.
//
// floc:hotpath
func parseNumber(num []byte) (float64, error) {
	var (
		mant uint64
		frac int
		dot  bool
	)
	digits := num
	if digits[0] == '-' {
		digits = digits[1:]
	}
	for _, c := range digits {
		if c == '.' {
			dot = true
			continue
		}
		if c < '0' || c > '9' {
			return strconv.ParseFloat(string(num), 64) // an exponent
		}
		if mant = mant*10 + uint64(c-'0'); mant >= maxExactMant {
			break // too many digits: exactDecimal refuses mant
		}
		if dot {
			frac++
		}
	}
	f, ok := exactDecimal(mant, frac)
	if !ok {
		return strconv.ParseFloat(string(num), 64)
	}
	if num[0] == '-' {
		f = -f
	}
	return f, nil
}

// decodeFrameHex hex-decodes one capture frame into dst, bounding the
// declared frame by the destination before touching it. The hex text is
// attacker-controlled; the returned count is not: hex.Decode writes at
// most len(dst) bytes and rejects partial or invalid digits.
//
// floc:hotpath
// floc:untrusted text
// floc:sanitizes
func decodeFrameHex(dst, text []byte) (int, error) {
	if len(text) > 2*len(dst) {
		return 0, errFrameTooLong(len(text))
	}
	return hex.Decode(dst, text)
}

// unhex maps a lowercase hex digit to its value and every other byte to
// 0xff: the digits CaptureWriter emits, and nothing else.
var unhex = func() (tab [256]byte) {
	for i := range tab {
		tab[i] = 0xff
	}
	for i, c := range "0123456789abcdef" {
		tab[c] = byte(i)
	}
	return tab
}()

// hexValue returns the value of the lowercase hex digit c, or 0xff if c is
// not one: whatever byte the line holds, the result is a digit or the mark
// of a non-digit.
//
// floc:hotpath
// floc:sanitizes
func hexValue(c byte) byte { return unhex[c] }

// scanTemplate matches raw against the exact bytes CaptureWriter emits for
// a time it renders from a short decimal,
//
//	{"t":<decimal>,"wire":"<lowercase hex>"}\n
//
// in one pass: the time's digits are validated (RFC 8259's leading zero
// rule, at most 15 significant, no sign, no exponent) and accumulated in
// one loop and converted as parseNumber converts them, and the hex is
// decoded into the frame buffer, which bounds it, as it is read. A line
// that differs from the template in any byte is not rejected but declined
// (ok false, the other results meaningless), for scanGeneral to parse:
// whitespace, swapped members, an exponent, a sign, a CR, a missing final
// LF, an odd or over-long frame, a digit off the table. What it accepts,
// scanGeneral accepts with the same time, bit for bit, and the same frame
// (FuzzCaptureTemplate, TestCaptureTemplateTakesWriterLines).
//
// floc:hotpath
// floc:untrusted raw
func (cr *CaptureReader) scanTemplate(raw []byte) (t float64, frameLen int, ok bool) {
	if len(raw) < len(capturePrefix) || string(raw[:len(capturePrefix)]) != capturePrefix {
		return 0, 0, false
	}
	b := raw[len(capturePrefix):]
	var mant uint64
	end, frac, point := 0, 0, -1
	for i, c := range b {
		if c >= '0' && c <= '9' {
			if i == 1 && b[0] == '0' {
				return 0, 0, false // a leading zero
			}
			if mant = mant*10 + uint64(c-'0'); mant >= maxExactMant {
				return 0, 0, false
			}
			if point >= 0 {
				frac++
			}
			continue
		}
		if c == '.' && point < 0 && i > 0 {
			point = i
			continue
		}
		end = i
		break
	}
	if end == 0 || end == point+1 {
		return 0, 0, false // no digits, none after the point, or no end
	}
	if t, ok = exactDecimal(mant, frac); !ok {
		return 0, 0, false
	}
	b = b[end:]
	if len(b) < len(captureMiddle) || string(b[:len(captureMiddle)]) != captureMiddle {
		return 0, 0, false
	}
	b = b[len(captureMiddle):]
	buf := cr.buf
	for n := range buf {
		if len(b) < len(captureSuffix) {
			return 0, 0, false
		}
		hi, lo := hexValue(b[0]), hexValue(b[1])
		if hi|lo > 0xf {
			// The closing quote, or an odd or off-table digit.
			return t, n, string(b) == captureSuffix
		}
		buf[n] = hi<<4 | lo
		b = b[2:]
	}
	return t, len(buf), string(b) == captureSuffix // or longer than any header
}

// scanLine parses one capture line into h and returns its arrival time,
// classifying any failure for the malformed counters. The line is matched
// against the writer's own template first (scanTemplate) and, only if it
// differs, parsed by scanGeneral; either way wire.Decode and the trailing
// bytes check finish it.
//
// floc:hotpath
// floc:untrusted raw
func (cr *CaptureReader) scanLine(raw []byte, h *Header) (float64, ErrorKind, error) {
	t, frameLen, ok := cr.scanTemplate(raw)
	if !ok {
		var (
			kind ErrorKind
			err  error
		)
		if t, frameLen, kind, err = cr.scanGeneral(raw); err != nil {
			return 0, kind, err
		}
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

// scanGeneral parses the text of any capture line into the arrival time
// and the frame, which it leaves in the frame buffer. The grammar is an
// object of exactly the members "t" (an RFC 8259 number) and "wire" (a
// string of hex digits), in either order, with JSON's insignificant
// whitespace allowed between tokens and nothing after the closing brace.
//
// floc:hotpath
// floc:untrusted raw
func (cr *CaptureReader) scanGeneral(raw []byte) (float64, int, ErrorKind, error) {
	const seenT, seenWire = 1, 2
	var (
		t        float64
		frameLen int
		seen     int
		key, val []byte
		err      error
	)
	b, ok := cutByte(raw, '{')
	if !ok {
		return 0, 0, ErrKindFraming, errRecordSyntax
	}
	for seen != seenT|seenWire {
		if seen != 0 {
			if b, ok = cutByte(b, ','); !ok {
				return 0, 0, ErrKindFraming, errRecordSyntax
			}
		}
		if key, b, ok = cutString(b); !ok {
			return 0, 0, ErrKindFraming, errRecordSyntax
		}
		if b, ok = cutByte(b, ':'); !ok {
			return 0, 0, ErrKindFraming, errRecordSyntax
		}
		switch {
		case string(key) == "t" && seen&seenT == 0:
			seen |= seenT
			if val, b = cutNumber(skipSpace(b)); len(val) == 0 {
				return 0, 0, ErrKindFraming, errRecordNumber
			}
			if t, err = parseNumber(val); err != nil {
				return 0, 0, ErrKindFraming, errRecordNumber
			}
		case string(key) == "wire" && seen&seenWire == 0:
			seen |= seenWire
			if val, b, ok = cutString(b); !ok {
				return 0, 0, ErrKindFraming, errRecordSyntax
			}
			if frameLen, err = decodeFrameHex(cr.buf, val); err != nil {
				return 0, 0, ErrKindFraming, err
			}
		default:
			return 0, 0, ErrKindFraming, errRecordMember
		}
	}
	if b, ok = cutByte(b, '}'); !ok || len(skipSpace(b)) != 0 {
		return 0, 0, ErrKindFraming, errRecordSyntax
	}
	return t, frameLen, ErrKindNone, nil
}

// readLine returns the next line with its terminator, valid until the
// next call. A line over maxCaptureLine is consumed to its end and
// reported as errLineTooLong, so the reader stays usable behind it — a
// bufio.Scanner stops for good there. io.EOF and read errors come back
// bare.
//
// floc:hotpath
// floc:untrusted return
func (cr *CaptureReader) readLine() ([]byte, error) {
	raw, err := cr.r.ReadSlice('\n')
	switch err {
	case nil:
	case io.EOF:
		if len(raw) == 0 {
			return nil, io.EOF
		}
		// The last line may lack a terminator.
	case bufio.ErrBufferFull:
		for err == bufio.ErrBufferFull {
			_, err = cr.r.ReadSlice('\n')
		}
		if err != nil && err != io.EOF {
			return nil, err
		}
		cr.line++
		return nil, errLineTooLong
	default:
		return nil, err
	}
	cr.line++
	return raw, nil
}

// Next decodes the next record into h and returns its arrival time.
// io.EOF signals a clean end of capture; any other error names the
// offending line (in lenient mode the line is counted and skipped
// instead). Empty lines are skipped in both modes.
//
// floc:hotpath
func (cr *CaptureReader) Next(h *Header) (t float64, err error) {
	for {
		raw, err := cr.readLine()
		if err != nil && err != errLineTooLong {
			return 0, err
		}
		kind := ErrKindFraming
		if err == nil {
			switch string(raw) {
			case "\n", "\r\n", "\r":
				continue
			}
			var t float64
			if t, kind, err = cr.scanLine(raw, h); err == nil {
				return t, nil
			}
		}
		if !cr.lenient {
			return 0, cr.lineError(err)
		}
		cr.malformed[kind]++
	}
}

// Line returns the number of the last consumed capture line.
func (cr *CaptureReader) Line() int { return cr.line }
