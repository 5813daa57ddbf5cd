package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"floc/internal/core"
	"floc/internal/ledger"
	"floc/internal/telemetry"
)

// traceEvents is a small single-router stream: two admits, one drop, one
// control run, plus an unsealed tail admit.
func traceEvents() []telemetry.Event {
	return []telemetry.Event{
		{Time: 0.1, Type: telemetry.EventPacketAdmitted, Path: "100-10-1"},
		{Time: 0.2, Type: telemetry.EventPacketAdmitted, Path: "100-10-1"},
		{Time: 0.3, Type: telemetry.EventPacketDropped, Path: "108-12-1", Reason: "no-token"},
		{Time: 0.4, Type: telemetry.EventControlRunCompleted, Value: 1},
		{Time: 0.5, Type: telemetry.EventPacketAdmitted, Path: "100-10-1"},
	}
}

// claimedSnapshot is the Snapshot traceEvents folds to.
func claimedSnapshot() core.Snapshot {
	return core.Snapshot{
		Mode:        core.ModeUncongested,
		Arrived:     4,
		Admitted:    3,
		Drops:       map[string]int64{"no-token": 1},
		ControlRuns: 1,
		Paths: []core.PathInfo{
			{Key: "100-10-1", AdmittedPackets: 3},
			{Key: "108-12-1", DroppedPackets: 1},
		},
	}
}

// sealAndVerify seals traceEvents into a fresh ledger directory through
// the sealer flocd and flocsim attach as their event sink.
func sealAndVerify(t *testing.T) (dir string) {
	t.Helper()
	dir = filepath.Join(t.TempDir(), "ledger")
	s, err := ledger.NewSealer(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range traceEvents() {
		s.Emit(e)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Events() != 5 || s.Segments() != 2 {
		t.Fatalf("sealed %d events into %d segments, want 5 into 2", s.Events(), s.Segments())
	}
	return dir
}

func TestSealVerifyReplayPipeline(t *testing.T) {
	dir := sealAndVerify(t)

	var out bytes.Buffer
	if err := run([]string{"verify", "-ledger", dir}, &out); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if !strings.Contains(out.String(), "verified 2 segments, 5 events") ||
		!strings.Contains(out.String(), "head ") {
		t.Fatalf("verify output: %q", out.String())
	}

	snapPath := filepath.Join(dir, ledger.SnapshotName)
	if err := ledger.WriteSnapshot(snapPath, claimedSnapshot()); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"replay", "-ledger", dir}, &out); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !strings.Contains(out.String(), "replay matches claimed snapshot") {
		t.Fatalf("replay output: %q", out.String())
	}
}

func TestReplayRejectsForgedSnapshot(t *testing.T) {
	dir := sealAndVerify(t)
	forged := claimedSnapshot()
	forged.Admitted = 30
	forged.Arrived = 31
	if err := ledger.WriteSnapshot(filepath.Join(dir, ledger.SnapshotName), forged); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := run([]string{"replay", "-ledger", dir}, &out)
	if err == nil || !strings.Contains(err.Error(), "admitted") {
		t.Fatalf("forged snapshot not rejected: %v", err)
	}
}

func TestVerifyNamesTamperedSegment(t *testing.T) {
	dir := sealAndVerify(t)
	path := filepath.Join(dir, "events-000001.ndjson")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the first event (segment 0).
	i := bytes.IndexByte(b, '1')
	b[i] = '2'
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err = run([]string{"verify", "-ledger", dir}, &out)
	var verr *ledger.VerifyError
	if !errors.As(err, &verr) {
		t.Fatalf("verify error is %T, want *ledger.VerifyError: %v", err, err)
	}
	if verr.Kind != ledger.ErrRootMismatch || verr.Segment != 0 {
		t.Fatalf("verify error = %v, want root-mismatch at segment 0", err)
	}
	if !strings.Contains(err.Error(), "root-mismatch at segment 0") {
		t.Fatalf("error text must name the segment: %v", err)
	}
}

func TestUsageErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err == nil {
		t.Fatal("no subcommand must error")
	}
	if err := run([]string{"frobnicate"}, &out); err == nil {
		t.Fatal("unknown subcommand must error")
	}
	if err := run([]string{"verify"}, &out); err == nil {
		t.Fatal("verify without -ledger must error")
	}
	if err := run([]string{"seal"}, &out); err == nil || !strings.Contains(err.Error(), "unknown subcommand") {
		t.Fatalf("seal = %v; sealing is the sealer sink's alone", err)
	}
	if err := run([]string{"replay"}, &out); err == nil {
		t.Fatal("replay without -ledger must error")
	}
}
