package ledger

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// sealTampered seals a known three-segment run and returns its directory.
func sealTampered(t *testing.T) string {
	t.Helper()
	dir, _ := sealDir(t, synthRun(3, 15, 0))
	return dir
}

// wantVerifyError runs Verify and asserts the typed failure names both
// the expected kind and segment.
func wantVerifyError(t *testing.T, dir string, kind ErrorKind, segment uint32) {
	t.Helper()
	_, err := Verify(dir, nil)
	if err == nil {
		t.Fatal("Verify accepted a tampered ledger")
	}
	var verr *VerifyError
	if !errors.As(err, &verr) {
		t.Fatalf("error is %T, want *VerifyError: %v", err, err)
	}
	if verr.Kind != kind {
		t.Fatalf("kind = %s, want %s (err: %v)", verr.Kind, kind, err)
	}
	if verr.Segment != segment {
		t.Fatalf("segment = %d, want %d (err: %v)", verr.Segment, segment, err)
	}
}

// segmentLineRange locates segment seg's line span within the events file.
func segmentLineRange(t *testing.T, dir string, seg uint32) (path string, first, count int) {
	t.Helper()
	lf, err := os.Open(filepath.Join(dir, LedgerName))
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()
	recs, err := readLedger(lf)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if rec.Segment == seg {
			return filepath.Join(dir, "events-000001.ndjson"), first, int(rec.Events)
		}
		first += int(rec.Events)
	}
	t.Fatalf("segment %d not found", seg)
	return "", 0, 0
}

func TestTamperByteFlipDetected(t *testing.T) {
	dir := sealTampered(t)
	path, first, _ := segmentLineRange(t, dir, 1)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(b, []byte("\n"))
	// Flip one digit inside segment 1's first event (its "t" value), so
	// the line still parses but the bytes no longer match the sealed root.
	line := lines[first]
	i := bytes.LastIndexAny(line, "0123456789")
	line[i] = '0' + ('9'-(line[i]-'0'))%10
	if err := os.WriteFile(path, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	wantVerifyError(t, dir, ErrRootMismatch, 1)
}

func TestTamperReorderDetected(t *testing.T) {
	dir := sealTampered(t)
	path, first, count := segmentLineRange(t, dir, 2)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(b, []byte("\n"))
	if count < 2 {
		t.Fatal("segment too small to reorder")
	}
	lines[first], lines[first+1] = lines[first+1], lines[first]
	if err := os.WriteFile(path, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	wantVerifyError(t, dir, ErrRootMismatch, 2)
}

func TestTamperLedgerTailTruncated(t *testing.T) {
	dir := sealTampered(t)
	path := filepath.Join(dir, LedgerName)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Drop the last record: its events become orphaned lines that no
	// sealed segment accounts for.
	if err := os.Truncate(path, fi.Size()-recordSize); err != nil {
		t.Fatal(err)
	}
	wantVerifyError(t, dir, ErrTrailingEvents, 1)
}

func TestTamperEventsTailTruncated(t *testing.T) {
	dir := sealTampered(t)
	path := filepath.Join(dir, "events-000001.ndjson")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(b, []byte("\n"))
	lines = lines[:len(lines)-3]
	if err := os.WriteFile(path, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	wantVerifyError(t, dir, ErrSegmentTruncated, 2)
}

func TestTamperLedgerRecordEdited(t *testing.T) {
	dir := sealTampered(t)
	path := filepath.Join(dir, LedgerName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside record 1's stored root: the chain hash covers
	// it, so the forgery is caught before any event is even read.
	b[headerSize+recordSize+24] ^= 0x01
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	wantVerifyError(t, dir, ErrChainMismatch, 1)
}

func TestTamperHeaderEdited(t *testing.T) {
	dir := sealTampered(t)
	path := filepath.Join(dir, LedgerName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x01
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	wantVerifyError(t, dir, ErrBadHeader, NoSegment)
}

func TestTamperEventsFileDeleted(t *testing.T) {
	dir := sealTampered(t)
	if err := os.Remove(filepath.Join(dir, "events-000001.ndjson")); err != nil {
		t.Fatal(err)
	}
	wantVerifyError(t, dir, ErrMissingFile, NoSegment)
}

func TestTamperUndecodableEventOnlyFailsCollect(t *testing.T) {
	// A line altered after sealing is caught by its segment root first.
	// To isolate ErrEventDecode the garbage must be sealed as is, so
	// the root matches: inject it through the sealer's internals.
	dir := filepath.Join(t.TempDir(), "ledger")
	s, err := NewSealer(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Bypass Emit's marshalling: inject a raw non-JSON line.
	s.lines = append(s.lines, []byte("not-json\n")...)
	s.leaves = append(s.leaves, LeafHash([]byte("not-json")))
	s.count++
	s.seal(1, 0)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wantVerifyError(t, dir, ErrEventDecode, 0)
}
