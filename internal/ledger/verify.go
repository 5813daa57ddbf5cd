package ledger

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"floc/internal/telemetry"
)

// VerifyReport summarizes a successful verification.
type VerifyReport struct {
	Segments int
	Events   int64
	Files    int
	Head     Hash // final chain value; publish to anchor the ledger
}

// eventsCursor reads event lines across the numbered bulk files in
// ledger order.
type eventsCursor struct {
	dir     string
	fileNum uint32
	f       *os.File
	sc      *bufio.Scanner
	opened  int
}

// open positions the cursor at the start of file n.
func (c *eventsCursor) open(n uint32) error {
	if c.f != nil {
		c.f.Close()
		c.f = nil
	}
	f, err := os.Open(filepath.Join(c.dir, fmt.Sprintf(EventsPattern, n)))
	if err != nil {
		return verifyErrf(ErrMissingFile, NoSegment, "events file %d: %v", n, err)
	}
	c.f = f
	c.fileNum = n
	c.opened++
	c.sc = bufio.NewScanner(f)
	c.sc.Buffer(make([]byte, 0, 64*1024), 1<<22)
	return nil
}

// next returns the next line of the current file, or (nil, false) at
// EOF. Scanner errors surface as truncation of whoever asked.
func (c *eventsCursor) next() ([]byte, bool, error) {
	if c.sc.Scan() {
		return c.sc.Bytes(), true, nil
	}
	return nil, false, c.sc.Err()
}

func (c *eventsCursor) close() {
	if c.f != nil {
		c.f.Close()
		c.f = nil
	}
}

// Verify checks a ledger directory end-to-end: header and record
// structure, the chain across records, every segment's recomputed
// Merkle root against its stored bytes, that every sealed line decodes
// as an event, and that no unsealed event lines trail the ledger. Any
// failure is a *VerifyError naming the offending segment.
//
// Verify holds one segment at a time. When fold is non-nil it is handed
// each segment's decoded events, oldest first, once that segment's root
// has matched; the slice is reused for the next segment, so fold must not
// keep it. A later segment can still fail, so a caller trusts what it
// folded only when Verify returns no error.
func Verify(dir string, fold func([]telemetry.Event)) (*VerifyReport, error) {
	lf, err := os.Open(filepath.Join(dir, LedgerName))
	if err != nil {
		return nil, verifyErrf(ErrMissingFile, NoSegment, "%v", err)
	}
	defer lf.Close()
	recs, err := readLedger(bufio.NewReader(lf))
	if err != nil {
		return nil, err
	}

	cur := &eventsCursor{dir: dir}
	defer cur.close()
	// The first events file must exist even for an empty run, so a
	// deleted bulk file cannot masquerade as "no events".
	if err := cur.open(1); err != nil {
		return nil, err
	}

	rep := &VerifyReport{Head: chainSeed()}
	var events []telemetry.Event // the current segment's, when fold reads them
	leaves := make([]Hash, 0, 4096)
	for _, rec := range recs {
		// Advance to the record's file. Leftover lines in an earlier
		// file mean the stored bytes and the ledger disagree.
		for cur.fileNum < rec.File {
			if line, more, err := cur.next(); err != nil {
				return nil, verifyErrf(ErrSegmentTruncated, rec.Segment,
					"reading events file %d: %v", cur.fileNum, err)
			} else if more {
				return nil, verifyErrf(ErrTrailingEvents, rec.Segment,
					"events file %d holds lines (%q…) beyond its sealed segments", cur.fileNum, clip(line))
			}
			if err := cur.open(cur.fileNum + 1); err != nil {
				return nil, err
			}
		}
		// A line that fails to decode is reported only once the root
		// matched: a line altered after sealing is a root mismatch.
		leaves, events = leaves[:0], events[:0]
		var undecodable error
		for i := uint32(0); i < rec.Events; i++ {
			line, more, err := cur.next()
			if err != nil {
				return nil, verifyErrf(ErrSegmentTruncated, rec.Segment,
					"reading events file %d: %v", cur.fileNum, err)
			}
			if !more {
				return nil, verifyErrf(ErrSegmentTruncated, rec.Segment,
					"events file %d ended after %d of %d events", cur.fileNum, i, rec.Events)
			}
			leaves = append(leaves, LeafHash(line))
			var e telemetry.Event
			if err := json.Unmarshal(line, &e); err != nil && undecodable == nil {
				undecodable = verifyErrf(ErrEventDecode, rec.Segment, "event %d: %v", i, err)
			}
			if fold != nil {
				events = append(events, e)
			}
		}
		if got := RootOf(leaves); got != rec.Root {
			return nil, verifyErrf(ErrRootMismatch, rec.Segment,
				"recomputed root %x != sealed %x", got[:8], rec.Root[:8])
		}
		if undecodable != nil {
			return nil, undecodable
		}
		if fold != nil {
			fold(events)
		}
		rep.Events += int64(rec.Events)
		rep.Head = rec.Chain
	}

	// Nothing may trail the last sealed segment, in this or any later
	// numbered file: a truncated ledger tail leaves orphaned lines here.
	lastSeg := NoSegment
	if n := len(recs); n > 0 {
		lastSeg = recs[n-1].Segment
	}
	for {
		if line, more, err := cur.next(); err != nil {
			return nil, verifyErrf(ErrSegmentTruncated, lastSeg,
				"reading events file %d: %v", cur.fileNum, err)
		} else if more {
			return nil, verifyErrf(ErrTrailingEvents, lastSeg,
				"events file %d holds lines (%q…) beyond the sealed ledger", cur.fileNum, clip(line))
		}
		if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf(EventsPattern, cur.fileNum+1))); err != nil {
			break
		}
		if err := cur.open(cur.fileNum + 1); err != nil {
			return nil, err
		}
	}

	rep.Segments = len(recs)
	rep.Files = cur.opened
	return rep, nil
}

// clip bounds a line excerpt for error messages.
func clip(line []byte) []byte {
	const max = 40
	if len(line) > max {
		return append(bytes.Clone(line[:max]), '.', '.', '.')
	}
	return line
}
