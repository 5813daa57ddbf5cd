package ledger

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
)

// On-disk layout of a ledger directory:
//
//	ledger.bin          append-only chained segment-root records
//	events-000001.ndjson  bulk canonical event lines, rotated by size
//	events-000002.ndjson  ...
//	snapshot.json       (optional) the run's final merged Snapshot
//
// The ledger file is a 12-byte header followed by fixed-size 88-byte
// records, one per sealed segment:
//
//	offset  size  field
//	0       4     segment index (0-based, must equal record position)
//	4       4     events-file number the segment's lines live in
//	8       4     event count
//	12      4     flags (bit 0: partial tail segment, sealed at Close
//	              without a closing control run)
//	16      8     control-run counter carried by the sealing event
//	24      32    Merkle root over the segment's canonical lines
//	56      32    chain hash: SHA-256(prev chain ‖ first 56 bytes)
//
// The chain hash of the last record is the ledger head. Publishing the
// head out-of-band (a log line, a monitoring system, another machine)
// anchors the whole history: any in-place edit, reorder, or mid-file
// truncation breaks either a segment root, the chain, or the
// events-file/ledger correspondence, and a tail truncation of *both*
// files is exposed by the anchored head no longer being derivable.

// Magic and version identify the ledger file format.
var ledgerMagic = [8]byte{'F', 'L', 'O', 'C', 'L', 'E', 'D', 'G'}

const (
	ledgerVersion = 1
	headerSize    = 12
	recordSize    = 88
	chainedSize   = recordSize - HashSize // bytes covered by the chain hash

	// FlagPartial marks a tail segment sealed at Close without a
	// closing ControlRunCompleted event.
	FlagPartial = 1 << 0

	// LedgerName and EventsPattern name the files inside a ledger dir.
	LedgerName    = "ledger.bin"
	EventsPattern = "events-%06d.ndjson"
	// SnapshotName is the conventional claimed-snapshot file.
	SnapshotName = "snapshot.json"

	// maxSegmentEvents bounds the per-segment event count accepted from
	// an untrusted ledger file, so a corrupt record cannot drive the
	// verifier into an absurd read loop.
	maxSegmentEvents = 1 << 28
)

// Record is one sealed segment's ledger entry.
type Record struct {
	Segment    uint32 // 0-based segment index
	File       uint32 // events-file number holding the segment's lines
	Events     uint32 // number of event lines in the segment
	Flags      uint32 // FlagPartial et al.
	ControlRun uint64 // control-run counter of the sealing event (0 if partial)
	Root       Hash   // Merkle root over the segment's canonical lines
	Chain      Hash   // SHA-256(prev chain ‖ encoded record sans chain)
}

// encodeInto writes the record into dst (>= recordSize bytes); the
// chain field must already be set.
func (r *Record) encodeInto(dst []byte) {
	binary.BigEndian.PutUint32(dst[0:], r.Segment)
	binary.BigEndian.PutUint32(dst[4:], r.File)
	binary.BigEndian.PutUint32(dst[8:], r.Events)
	binary.BigEndian.PutUint32(dst[12:], r.Flags)
	binary.BigEndian.PutUint64(dst[16:], r.ControlRun)
	copy(dst[24:], r.Root[:])
	copy(dst[56:], r.Chain[:])
}

// decodeRecord parses one fixed-size record.
func decodeRecord(src []byte, r *Record) {
	r.Segment = binary.BigEndian.Uint32(src[0:])
	r.File = binary.BigEndian.Uint32(src[4:])
	r.Events = binary.BigEndian.Uint32(src[8:])
	r.Flags = binary.BigEndian.Uint32(src[12:])
	r.ControlRun = binary.BigEndian.Uint64(src[16:])
	copy(r.Root[:], src[24:])
	copy(r.Chain[:], src[56:])
}

// chainSeed is the chain value "before" the first record: the hash of
// the file header, so even segment 0 is bound to the format version.
func chainSeed() Hash {
	var hdr [headerSize]byte
	copy(hdr[:], ledgerMagic[:])
	binary.BigEndian.PutUint16(hdr[8:], ledgerVersion)
	return sha256.Sum256(hdr[:])
}

// chainHash extends the chain over one record's covered bytes.
func chainHash(prev Hash, covered []byte) Hash {
	h := sha256.New()
	h.Write(prev[:])
	h.Write(covered)
	var out Hash
	h.Sum(out[:0])
	return out
}

// ErrorKind discriminates verification failures.
type ErrorKind uint8

const (
	// ErrBadHeader: the ledger file's magic or version is wrong.
	ErrBadHeader ErrorKind = iota
	// ErrBadRecord: a ledger record is internally inconsistent (index
	// out of sequence, file number not monotone, absurd event count).
	ErrBadRecord
	// ErrChainMismatch: a record's chain hash does not extend its
	// predecessor — the ledger was edited or spliced.
	ErrChainMismatch
	// ErrRootMismatch: a segment's recomputed Merkle root differs from
	// the sealed one — event bytes were altered or reordered.
	ErrRootMismatch
	// ErrSegmentTruncated: an events file ended before yielding the
	// segment's sealed event count.
	ErrSegmentTruncated
	// ErrTrailingEvents: event lines exist beyond what the ledger
	// seals — the ledger tail was truncated or events were appended.
	ErrTrailingEvents
	// ErrMissingFile: a file the ledger references does not exist.
	ErrMissingFile
	// ErrEventDecode: a sealed line is not a decodable telemetry event.
	ErrEventDecode

	numErrorKinds
)

// errorKindNames is indexed by ErrorKind; the exhaustiveness test
// asserts every kind below numErrorKinds has a unique non-empty label.
var errorKindNames = [numErrorKinds]string{
	ErrBadHeader:        "bad-header",
	ErrBadRecord:        "bad-record",
	ErrChainMismatch:    "chain-mismatch",
	ErrRootMismatch:     "root-mismatch",
	ErrSegmentTruncated: "segment-truncated",
	ErrTrailingEvents:   "trailing-events",
	ErrMissingFile:      "missing-file",
	ErrEventDecode:      "event-decode",
}

// String returns the kind's stable label.
func (k ErrorKind) String() string {
	if k < numErrorKinds {
		return errorKindNames[k]
	}
	return fmt.Sprintf("ErrorKind(%d)", uint8(k))
}

// NoSegment is the VerifyError.Segment value for failures not
// attributable to a specific segment (e.g. a bad file header).
const NoSegment = ^uint32(0)

// VerifyError is a typed verification failure naming the offending
// segment, so tooling (and the tamper tests) can assert exactly what
// was detected and where.
type VerifyError struct {
	Kind    ErrorKind
	Segment uint32 // offending segment index, or NoSegment
	Detail  string
}

// Error renders "ledger: <kind> at segment N: detail".
func (e *VerifyError) Error() string {
	if e.Segment == NoSegment {
		return fmt.Sprintf("ledger: %s: %s", e.Kind, e.Detail)
	}
	return fmt.Sprintf("ledger: %s at segment %d: %s", e.Kind, e.Segment, e.Detail)
}

// verifyErrf builds a VerifyError with a formatted detail.
func verifyErrf(kind ErrorKind, segment uint32, format string, args ...any) *VerifyError {
	return &VerifyError{Kind: kind, Segment: segment, Detail: fmt.Sprintf(format, args...)}
}

// readLedger parses a ledger stream: header check, fixed-size records,
// chain recomputation, and structural sanity per record. It returns the
// records with their chains already validated.
func readLedger(r io.Reader) ([]Record, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, verifyErrf(ErrBadHeader, NoSegment, "reading header: %v", err)
	}
	if [8]byte(hdr[:8]) != ledgerMagic {
		return nil, verifyErrf(ErrBadHeader, NoSegment, "bad magic %q", hdr[:8])
	}
	if v := binary.BigEndian.Uint16(hdr[8:]); v != ledgerVersion {
		return nil, verifyErrf(ErrBadHeader, NoSegment, "unsupported version %d", v)
	}
	chain := chainSeed()
	var recs []Record
	var buf [recordSize]byte
	for i := 0; ; i++ {
		_, err := io.ReadFull(r, buf[:])
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return nil, verifyErrf(ErrBadRecord, uint32(i), "short record: %v", err)
		}
		var rec Record
		decodeRecord(buf[:], &rec)
		if rec.Segment != uint32(i) {
			return nil, verifyErrf(ErrBadRecord, uint32(i),
				"record %d claims segment index %d", i, rec.Segment)
		}
		if rec.Events == 0 || rec.Events > maxSegmentEvents {
			return nil, verifyErrf(ErrBadRecord, uint32(i),
				"implausible event count %d", rec.Events)
		}
		if prevFile := fileOfPrev(recs); rec.File < prevFile || rec.File == 0 {
			return nil, verifyErrf(ErrBadRecord, uint32(i),
				"events-file number %d not monotone from %d", rec.File, prevFile)
		}
		chain = chainHash(chain, buf[:chainedSize])
		if chain != rec.Chain {
			return nil, verifyErrf(ErrChainMismatch, uint32(i),
				"chain hash does not extend segment %d's predecessor", i)
		}
		recs = append(recs, rec)
	}
}

// fileOfPrev returns the last record's events-file number (1 before any
// segment exists, since file numbering starts at 1).
func fileOfPrev(recs []Record) uint32 {
	if len(recs) == 0 {
		return 1
	}
	return recs[len(recs)-1].File
}
