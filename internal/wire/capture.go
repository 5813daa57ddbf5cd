package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// A capture is a classic libpcap file, as tcpdump and Wireshark read it:
// a 24-byte global header, then per packet a 16-byte record header (sec,
// nsec, captured and original length) and the shim frame MarshalAppend
// encodes, all little-endian. The magic says times carry nanoseconds, the
// link type LINKTYPE_USER0 that frames are a private protocol. A time is
// whole nanoseconds, so a capture holds exactly the float64 seconds it was
// written with. DESIGN.md "Capture format".
const (
	pcapMagicNanos  = 0xa1b23c4d
	linkTypeUser0   = 147
	pcapHeaderLen   = 24
	recordHeaderLen = 16
)

// pcapHeader is the global header: magic, version 2.4, time zone and
// accuracy 0, snaplen MaxEncodedLen, LINKTYPE_USER0.
var pcapHeader = func() []byte {
	le := binary.LittleEndian
	b := le.AppendUint32(nil, pcapMagicNanos)
	b = le.AppendUint16(le.AppendUint16(b, 2), 4)
	b = le.AppendUint32(le.AppendUint64(b, 0), MaxEncodedLen)
	return le.AppendUint32(b, linkTypeUser0)
}()

// ErrNotCapture reports input without the global header CaptureWriter writes:
// another format, such as the NDJSON captures before pcap, or another link type.
var ErrNotCapture = errors.New("wire: not a pcap capture of FLoc shim headers")

// How a record breaks around its frame: values, so lenient skips do not allocate.
var (
	errTruncated    = errors.New("record cut off by the end of the capture")
	errNanos        = errors.New("record nanoseconds at or above 10^9")
	errTimeRange    = errors.New("record time at or above 2^53 ns")
	errPacketCut    = errors.New("record holds less than the whole packet")
	errFrameTooLong = fmt.Errorf("record frame longer than any header (%d bytes)", MaxEncodedLen)
)

// CaptureWriter writes capture records.
type CaptureWriter struct {
	w     *bufio.Writer
	rec   []byte // the record being written: its header, then its frame
	lastT float64
	n     int
}

// NewCaptureWriter returns a CaptureWriter on w with the global header
// buffered. Call Flush when done: write errors, this one's too, surface there.
func NewCaptureWriter(w io.Writer) *CaptureWriter {
	cw := &CaptureWriter{w: bufio.NewWriter(w), rec: make([]byte, recordHeaderLen, recordHeaderLen+MaxEncodedLen)}
	_, _ = cw.w.Write(pcapHeader) // bufio keeps a write error for Flush to return
	return cw
}

// errCaptureTime reports a time the writer refuses.
func errCaptureTime(t float64, why string) error {
	return fmt.Errorf("wire: capture time %v is not %s", t, why)
}

// Write appends one record for h at time t, which must not precede the
// last record's and must be ns/1e9, bit for bit, for a whole ns in [0, 2^53)
// (where float64 holds every ns), so that it reads back exactly: 0.02 is,
// ten sums of 0.002 are not. It does not allocate.
func (cw *CaptureWriter) Write(t float64, h *Header) error {
	if cw.n > 0 && t < cw.lastT {
		return errCaptureTime(t, "at or after the previous record's")
	}
	if math.IsInf(t, 0) || math.IsNaN(t) {
		return errCaptureTime(t, "a finite number")
	}
	ns := math.Round(t * 1e9)
	if !(ns >= 0 && ns < 1<<53) || math.Float64bits(float64(uint64(ns))/1e9) != math.Float64bits(t) {
		return errCaptureTime(t, "a whole number of nanoseconds in [0, 2^53)")
	}
	n, frameLen, le := uint64(ns), uint32(h.EncodedLen()), binary.LittleEndian
	rec := le.AppendUint32(le.AppendUint32(cw.rec[:0], uint32(n/1e9)), uint32(n%1e9))
	rec, err := MarshalAppend(le.AppendUint32(le.AppendUint32(rec, frameLen), frameLen), h)
	if err != nil {
		return err
	}
	cw.rec = rec
	if _, err := cw.w.Write(rec); err != nil {
		return err
	}
	cw.lastT = t
	cw.n++
	return nil
}

// Flush flushes buffered output.
func (cw *CaptureWriter) Flush() error { return cw.w.Flush() }

// Records returns how many records were written.
func (cw *CaptureWriter) Records() int { return cw.n }

// CaptureReader streams records out of a capture. A malformed record fails
// the read, or in lenient mode (SkipMalformed) is counted by error kind and
// skipped by its declared length, so one bad record does not void a long
// replay. A bad global header fails both modes. Next does not allocate.
type CaptureReader struct {
	r         *bufio.Reader
	started   bool // the global header has been read
	records   int
	lenient   bool
	malformed [NumErrorKinds]int64
}

// NewCaptureReader returns a CaptureReader on r; its buffer holds any record.
func NewCaptureReader(r io.Reader) *CaptureReader {
	return &CaptureReader{r: bufio.NewReaderSize(r, 64<<10)}
}

// SkipMalformed switches the reader between strict (default: any bad
// record fails the read) and lenient (bad records are counted and skipped).
func (cr *CaptureReader) SkipMalformed(on bool) { cr.lenient = on }

// Malformed returns the number of records skipped in lenient mode.
func (cr *CaptureReader) Malformed() int64 {
	var n int64
	for _, c := range cr.malformed {
		n += c
	}
	return n
}

// MalformedByKind returns the per-ErrorKind counts of skipped records; one
// broken around its frame counts under ErrKindFraming.
func (cr *CaptureReader) MalformedByKind() [NumErrorKinds]int64 { return cr.malformed }

// Line returns the index, from 1, of the last record read.
func (cr *CaptureReader) Line() int { return cr.records }

// recordError names the offending record in a strict-mode failure.
func (cr *CaptureReader) recordError(err error) error {
	return fmt.Errorf("wire: capture record %d: %w", cr.records, err)
}

// readPcapHeader consumes the global header, or fails if there is none: the
// magic, version and link type must match; snaplen and the rest are moot.
//
// Once per capture.
func (cr *CaptureReader) readPcapHeader() error {
	b, err := cr.r.Peek(pcapHeaderLen)
	if err != nil && err != io.EOF {
		return err
	}
	if len(b) < pcapHeaderLen || string(b[:8]) != string(pcapHeader[:8]) || string(b[20:]) != string(pcapHeader[20:]) {
		return fmt.Errorf("%w (it starts %q)", ErrNotCapture, b[:min(len(b), 8)])
	}
	_, err = cr.r.Discard(pcapHeaderLen)
	return err
}

// recordHeader reads a record header and bounds its attacker-controlled
// frame length by the longest header there is. A time is whole ns below
// 2^53, as the writer writes them, so that float64 holds it before the
// one rounding of the division.
func recordHeader(rh []byte) (t float64, frameLen int, err error) {
	le := binary.LittleEndian
	sec, nsec, incl, orig := le.Uint32(rh), le.Uint32(rh[4:]), le.Uint32(rh[8:]), le.Uint32(rh[12:])
	ns := uint64(sec)*1e9 + uint64(nsec)
	switch {
	case nsec >= 1e9:
		return 0, 0, errNanos
	case ns >= 1<<53:
		return 0, 0, errTimeRange
	case incl != orig:
		return 0, 0, errPacketCut
	case incl > MaxEncodedLen:
		return 0, 0, errFrameTooLong
	}
	return float64(ns) / 1e9, int(incl), nil
}

// readRecord decodes the next record into h and returns its time, or the
// kind of its breakage, having consumed it to its declared length or the
// end of input. Clean EOF and read errors come back bare, ErrKindNone.
func (cr *CaptureReader) readRecord(h *Header) (float64, ErrorKind, error) {
	rh, err := cr.r.Peek(recordHeaderLen)
	if len(rh) == 0 || (err != nil && err != io.EOF) {
		return 0, ErrKindNone, err
	}
	cr.records++
	t, n := 0.0, 0
	if err == nil {
		if t, n, err = recordHeader(rh); err != nil {
			// Past the end of input is fine; a read error recurs at the next Peek.
			_, _ = cr.r.Discard(recordHeaderLen + int(binary.LittleEndian.Uint32(rh[8:])))
			return 0, ErrKindFraming, err
		}
		rh, err = cr.r.Peek(recordHeaderLen + n)
	}
	_, _ = cr.r.Discard(len(rh)) // buffered, so it cannot fail, and rh stays valid
	if err == io.EOF {
		return 0, ErrKindFraming, errTruncated
	} else if err != nil {
		return 0, ErrKindNone, err
	}
	used, err := Decode(rh[recordHeaderLen:], h)
	switch {
	case err != nil:
		return 0, KindOfError(err), err
	case used != n:
		return 0, ErrKindFraming, ErrTrailing
	}
	return t, ErrKindNone, nil
}

// Next decodes the next record into h and returns its arrival time.
// io.EOF signals a clean end of capture; any other error names the
// offending record, unless lenient mode skipped it.
func (cr *CaptureReader) Next(h *Header) (float64, error) {
	if !cr.started {
		if err := cr.readPcapHeader(); err != nil {
			return 0, err
		}
		cr.started = true
	}
	for {
		t, kind, err := cr.readRecord(h)
		switch {
		case err == nil:
			return t, nil
		case kind == ErrKindNone:
			return 0, err
		case !cr.lenient:
			return 0, cr.recordError(err)
		}
		cr.malformed[kind]++
	}
}
