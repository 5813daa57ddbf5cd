package main

import (
	"context"
	"fmt"
	"path/filepath"
	"strconv"
	"time"

	"floc/internal/ledger"
)

const (
	replaySetupReps = 5 // capture generations per run; setup_s is their median
	minReplays      = 3 // replays per run, even when one outlasts -seconds
)

// replayRun is a series of closed-loop replays of one capture, each in a
// fresh flocd process.
type replayRun struct {
	packets  int64     // packets in the capture
	uses     []usage   // one per replay
	admitted []float64 // router admitted count, one per replay
}

// capturePath is where a run keeps its one capture file.
func capturePath(tmp string) string { return filepath.Join(tmp, "capture.ndjson") }

func flocdReplayArgs(w workload, capture string) []string {
	return []string{
		"-replay", capture, "-shards", "2", "-capacity", "512",
		"-link", strconv.FormatFloat(w.link, 'g', -1, 64), "-snapshot",
	}
}

// replayOnce runs one replay to completion and checks what it reports
// against the capture: every packet processed, none malformed.
func replayOnce(ctx context.Context, bin string, packets int64, args []string) (usage, report, error) {
	// A 1 M-packet replay takes ~1.5 s; 60 s means it hung.
	ctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	c, err := startChild(ctx, bin, args...)
	if err != nil {
		return usage{}, report{}, err
	}
	use, err := c.wait()
	if err != nil {
		return usage{}, report{}, err
	}
	rep, err := parseReport(c.stdout.String())
	if err != nil {
		return usage{}, report{}, err
	}
	replayed, malformed, err := parseReplayed(c.stderrText())
	if err != nil {
		return usage{}, report{}, err
	}
	if replayed != packets || malformed != 0 || rep.processed != packets || rep.accepted != packets {
		return usage{}, report{}, fmt.Errorf("replay lost packets: capture %d, replayed %d (%d malformed), accepted %d, processed %d",
			packets, replayed, malformed, rep.accepted, rep.processed)
	}
	return use, rep, nil
}

// runReplay writes the capture replaySetupReps times (set-up time is the
// median), then replays it in fresh processes until runSeconds of replay
// time have passed, at least minReplays times.
func runReplay(ctx context.Context, bin, tmp string, w workload, seed uint64, packets, runSeconds int) (*traffic, *replayRun, float64, error) {
	capture := capturePath(tmp)
	var tr *traffic
	var setups []float64
	for i := 0; i < replaySetupReps; i++ {
		start := nanos()
		var err error
		if tr, err = generate(w, seed, packets); err != nil {
			return nil, nil, 0, err
		}
		if err := writeCapture(capture, w, tr); err != nil {
			return nil, nil, 0, err
		}
		setups = append(setups, seconds(nanos()-start))
	}
	run := &replayRun{packets: int64(packets)}
	var spent float64
	for len(run.uses) < minReplays || spent < float64(runSeconds) {
		use, rep, err := replayOnce(ctx, bin, run.packets, flocdReplayArgs(w, capture))
		if err != nil {
			return nil, nil, 0, err
		}
		run.uses = append(run.uses, use)
		run.admitted = append(run.admitted, float64(rep.admitted))
		spent += use.wallS
	}
	return tr, run, median(setups), nil
}

// replayDelivery replays the capture once more with -ledger, whose sealed
// snapshot.json is the only place flocd reports per-path admitted counts,
// and splits them by the generator's ground truth. The run is not timed:
// sealing a million events costs more than the replay it observes.
func replayDelivery(ctx context.Context, bin, tmp string, w workload, tr *traffic) (legitAdmitted, attackAdmitted int64, err error) {
	dir := filepath.Join(tmp, "ledger")
	defer removeAll(dir)
	args := append(flocdReplayArgs(w, capturePath(tmp)), "-ledger", dir)
	if _, _, err := replayOnce(ctx, bin, int64(len(tr.sched)), args); err != nil {
		return 0, 0, err
	}
	snap, err := ledger.ReadSnapshot(filepath.Join(dir, ledger.SnapshotName))
	if err != nil {
		return 0, 0, err
	}
	attackKey := make(map[string]bool, len(tr.paths))
	for i, p := range tr.paths {
		attackKey[p.Key()] = i >= tr.nLegit
	}
	for _, p := range snap.Paths {
		attack, known := attackKey[p.Key]
		switch {
		case !known:
			return 0, 0, fmt.Errorf("flocd reports path %s, which the capture does not contain", p.Key)
		case attack:
			attackAdmitted += p.AdmittedPackets
		default:
			legitAdmitted += p.AdmittedPackets
		}
	}
	return legitAdmitted, attackAdmitted, nil
}
