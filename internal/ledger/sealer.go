package ledger

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"floc/internal/core"
	"floc/internal/telemetry"
)

// rotateBytes is the size past which the bulk events file rotates to
// the next number. It is checked at segment boundaries, so a segment is
// always contiguous within one file.
const rotateBytes = 8 << 20

// Sealer is a telemetry.EventSink that seals the event stream into a
// ledger directory. Events buffer in memory until a ControlRunCompleted
// event closes the segment; sealing hashes each buffered canonical line
// into a Merkle tree, appends the chained segment record to ledger.bin,
// and spills the bulk lines to the current numbered events file.
//
// Emit is safe for concurrent use (the dataplane's shard routers all
// feed one Sealer), and I/O failures are sticky: the first error stops
// further sealing and is reported by Close/Err, because a forensic
// ledger that silently drops segments would be worse than none.
type Sealer struct {
	mu       sync.Mutex
	dir      string
	rotateAt int64 // rotateBytes; lowered only by the rotation test

	ledger *os.File
	lw     *bufio.Writer

	fileNum   uint32
	events    *os.File
	ew        *bufio.Writer
	fileBytes int64

	seg    uint32
	chain  Hash
	lines  []byte // pending canonical lines, each newline-terminated
	leaves []Hash
	count  uint32

	totalEvents int64
	err         error
}

// NewSealer creates the ledger directory (if needed) and the ledger and
// first events files inside it. An existing ledger.bin is refused: the
// ledger is evidence, and silently resealing over it would break the
// chain anchored by any previously published head.
func NewSealer(dir string) (*Sealer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	lf, err := os.OpenFile(filepath.Join(dir, LedgerName),
		os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ledger: refusing to reseal: %w", err)
	}
	s := &Sealer{
		dir:      dir,
		rotateAt: rotateBytes,
		ledger:   lf,
		lw:       bufio.NewWriter(lf),
		fileNum:  1,
		chain:    chainSeed(),
	}
	var hdr [headerSize]byte
	copy(hdr[:], ledgerMagic[:])
	hdr[8] = byte(ledgerVersion >> 8)
	hdr[9] = byte(ledgerVersion)
	if _, err := s.lw.Write(hdr[:]); err != nil {
		lf.Close()
		return nil, fmt.Errorf("ledger: %w", err)
	}
	if err := s.openEvents(); err != nil {
		lf.Close()
		return nil, err
	}
	return s, nil
}

// openEvents opens the current numbered events file for writing.
func (s *Sealer) openEvents() error {
	f, err := os.OpenFile(filepath.Join(s.dir, fmt.Sprintf(EventsPattern, s.fileNum)),
		os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	s.events = f
	s.ew = bufio.NewWriter(f)
	s.fileBytes = 0
	return nil
}

// Emit implements telemetry.EventSink: buffer the event's canonical
// encoding, and seal the pending segment when a control run completes.
//
// Forensic sealing is an opt-in excursion: encoding and hashing evidence
// is its whole point, and it never runs when no ledger is attached.
func (s *Sealer) Emit(e telemetry.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	line, err := json.Marshal(e)
	if err != nil {
		s.err = fmt.Errorf("ledger: encoding event: %w", err)
		return
	}
	s.lines = append(s.lines, line...)
	s.lines = append(s.lines, '\n')
	s.leaves = append(s.leaves, LeafHash(line))
	s.count++
	s.totalEvents++
	if e.Type == telemetry.EventControlRunCompleted {
		s.seal(uint64(e.Value), 0)
	}
}

// seal closes the pending segment: rotate the events file if it grew
// past the budget, spill the buffered lines, and append the chained
// record. Caller holds s.mu.
//
// Sealing runs once per control-run boundary, never per packet.
func (s *Sealer) seal(controlRun uint64, flags uint32) {
	if s.count == 0 || s.err != nil {
		return
	}
	if s.fileBytes >= s.rotateAt {
		s.rotate()
		if s.err != nil {
			return
		}
	}
	if _, err := s.ew.Write(s.lines); err != nil {
		s.err = fmt.Errorf("ledger: writing segment %d events: %w", s.seg, err)
		return
	}
	s.fileBytes += int64(len(s.lines))

	rec := Record{
		Segment:    s.seg,
		File:       s.fileNum,
		Events:     s.count,
		Flags:      flags,
		ControlRun: controlRun,
		Root:       RootOf(s.leaves),
	}
	var buf [recordSize]byte
	rec.encodeInto(buf[:])
	s.chain = chainHash(s.chain, buf[:chainedSize])
	rec.Chain = s.chain
	rec.encodeInto(buf[:])
	if _, err := s.lw.Write(buf[:]); err != nil {
		s.err = fmt.Errorf("ledger: appending segment %d record: %w", s.seg, err)
		return
	}
	// Flush both streams per segment: a crash loses at most the
	// unsealed tail, never a sealed segment's record/bytes pairing.
	if err := s.ew.Flush(); err != nil {
		s.err = fmt.Errorf("ledger: flushing events: %w", err)
		return
	}
	if err := s.lw.Flush(); err != nil {
		s.err = fmt.Errorf("ledger: flushing ledger: %w", err)
		return
	}
	s.seg++
	s.lines = s.lines[:0]
	s.leaves = s.leaves[:0]
	s.count = 0
}

// rotate advances to the next numbered events file. Caller holds s.mu.
//
// Rotation happens at most once per sealed segment.
func (s *Sealer) rotate() {
	if err := s.ew.Flush(); err != nil {
		s.err = fmt.Errorf("ledger: flushing events: %w", err)
		return
	}
	if err := s.events.Close(); err != nil {
		s.err = fmt.Errorf("ledger: closing events file %d: %w", s.fileNum, err)
		return
	}
	s.fileNum++
	if err := s.openEvents(); err != nil {
		s.err = err
	}
}

// Close seals any trailing events as a partial segment (FlagPartial, no
// closing control run), flushes, and closes the files. It returns the
// first error the sealer hit, if any.
func (s *Sealer) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seal(0, FlagPartial)
	if s.ew != nil {
		if err := s.ew.Flush(); err != nil && s.err == nil {
			s.err = fmt.Errorf("ledger: flushing events: %w", err)
		}
	}
	if s.events != nil {
		if err := s.events.Close(); err != nil && s.err == nil {
			s.err = fmt.Errorf("ledger: closing events: %w", err)
		}
		s.events = nil
	}
	if s.lw != nil {
		if err := s.lw.Flush(); err != nil && s.err == nil {
			s.err = fmt.Errorf("ledger: flushing ledger: %w", err)
		}
	}
	if s.ledger != nil {
		if err := s.ledger.Close(); err != nil && s.err == nil {
			s.err = fmt.Errorf("ledger: closing ledger: %w", err)
		}
		s.ledger = nil
	}
	return s.err
}

// CloseWithSnapshot closes the sealer and stores snap, the state the run
// claims to have ended in, as SnapshotName beside the ledger: the claim
// floctrace replay checks against the sealed events.
func (s *Sealer) CloseWithSnapshot(snap core.Snapshot) error {
	if err := s.Close(); err != nil {
		return err
	}
	return WriteSnapshot(filepath.Join(s.dir, SnapshotName), snap)
}

// Head returns the current chain head: the value to publish out-of-band
// to anchor the ledger.
func (s *Sealer) Head() Hash {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.chain
}

// Segments returns how many segments have been sealed so far.
func (s *Sealer) Segments() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int(s.seg)
}

// Events returns how many events the sealer has received.
func (s *Sealer) Events() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.totalEvents
}

// Err returns the sealer's sticky error without closing it.
func (s *Sealer) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}
