package dataplane

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"floc/internal/core"
	"floc/internal/netsim"
	"floc/internal/pathid"
	"floc/internal/rng"
	"floc/internal/telemetry"
)

// replayMixDigest drives the repo benchmark's replay_mix in miniature —
// 64 paths of 8 flows, the last 16 attacking at eight packets a round to
// the others' one, rounds freshly shuffled, 60 000 handle-stamped packets
// at twice the link rate — through a 2-shard engine from one Burst, and
// folds what the run leaves behind into a digest: the merged snapshot and
// every counter and histogram series the shard routers wrote. Gauges
// (recorded when the shards' router gauges still overwrote each other)
// and the engine's wall-clock health series are left out; nothing else
// depends on how the workers were
// scheduled — nor, with quiesce set, on the seeded random points at which
// the producer flushed or quiesced, some runs going through the ring and
// some being admitted by the producer itself.
func replayMixDigest(t *testing.T, quiesce bool) string {
	t.Helper()
	rc := core.DefaultConfig(80e6, 256) // 10 000 packets/s
	rc.Seed = 42
	reg := telemetry.NewRegistry()
	e, err := New(Config{Router: rc, Shards: 2, BlockOnFull: true, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	const nPaths, flowsPer, packets, gap = 64, 8, 60_000, 50e-6
	paths := make([]pathid.PathID, nPaths)
	handles := make([]uint32, nPaths)
	var round []int
	for p := range paths {
		paths[p] = pathid.New(pathid.ASN(10000+p), pathid.ASN(100+p%8), 1)
		handles[p] = e.InternPath(paths[p])
		reps := 1
		if p >= nPaths-nPaths/4 {
			reps = 8
		}
		for i := 0; i < reps; i++ {
			round = append(round, p)
		}
	}
	src, cut := rng.New(7), rng.New(13)
	b := e.NewBurst()
	for i, next := 0, len(round); i < packets; i, next = i+1, next+1 {
		if next == len(round) {
			src.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
			next = 0
		}
		p := round[next]
		b.Enqueue(&netsim.Packet{
			ID: uint64(i), Src: 0x0a000000 | uint32(p)<<8 | uint32(src.Intn(flowsPer)), Dst: 0xc0a80001,
			Size: 1000, Kind: netsim.KindUDP, Path: paths[p], PathHandle: handles[p],
		}, float64(i)*gap)
		if quiesce {
			cutBurst(e, b, cut, 512)
		}
	}
	if quiesce {
		b.Quiesce()
		wentBothWays(t, e)
	} else {
		b.Flush()
	}
	e.Advance(packets*gap + 1)

	snap := e.Snapshot()
	if snap.Arrived != packets || snap.Drops["preferential"] == 0 || snap.Drops["no-token"] == 0 {
		t.Fatalf("the replay does not reach the attack-path policy: %+v", snap)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%+v\n", snap)
	var text strings.Builder
	if err := reg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	gauges := map[string]bool{}
	for lines := bufio.NewScanner(strings.NewReader(text.String())); lines.Scan(); {
		line := lines.Text()
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" && f[3] == "gauge" {
			gauges[f[2]] = true
		}
		name, _, _ := strings.Cut(strings.TrimPrefix(strings.TrimPrefix(line, "# HELP "), "# TYPE "), " ")
		name, _, _ = strings.Cut(name, "{")
		if gauges[name] || strings.HasPrefix(name, "floc_dataplane_") || name == "floc_build_info" {
			continue
		}
		fmt.Fprintln(h, line)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// replayMixRecorded is replayMixDigest at ae83768, the last commit whose
// shard workers admitted a batch without reading ahead over it first,
// less the per-path registry series deleted since. ae83768 recorded
// 6ac64182…; ef8c6e6, which still produced that, was run with every
// registry line containing "floc_path_" left out of the hash and printed
// the value below, which the tree without those series reproduces
// unfiltered.
const replayMixRecorded = "ff09690a4d5e57391ab0a00811f1b98d07c8c9bff50327ed4a5649210510819d"

// TestPrefetchIsInvisible: a shard that calls Router.Prefetch on every
// batch it admits leaves exactly what one that does not leaves — wherever
// the ring happened to cut the batches and whoever admitted them, the
// worker or the quiescing producer, run after run.
func TestPrefetchIsInvisible(t *testing.T) {
	for run := 0; run < 4; run++ {
		if got := replayMixDigest(t, run == 3); got != replayMixRecorded {
			t.Fatalf("run %d: digest %s, want %s (ae83768's, less the per-path series)", run, got, replayMixRecorded)
		}
	}
}
