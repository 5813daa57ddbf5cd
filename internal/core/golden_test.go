package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"slices"
	"strings"
	"testing"

	"floc/internal/netsim"
	"floc/internal/pathid"
	"floc/internal/rng"
	"floc/internal/telemetry"
)

// TestControlLoopGolden pins the control loop's observable behaviour to
// digests recorded from the commit *before* the flow table and control
// pass were rebuilt (c7a73ab): seeded traces are driven through a router
// and everything an outsider can see — periodic Snapshot.String() and
// PathInfos(), DistinctDroppedFlows, the full event stream, the trace ring's NDJSON and the registry text — is folded into
// one SHA-256 per trace. A control-loop change that reorders, delays or
// alters a single admission, classification, expiry or aggregation
// decision changes a digest. Unlike the handle-vs-string differential
// test, the reference here is not the code under test.
//
// The registry text is hashed without floc_build_info (toolchain
// dependent) and without the three flow gauges/counters that did not
// exist when the digests were taken (goldenSkippedFamilies).
//
// The digests were re-recorded twice, each time by running the last
// commit that matched them with only the deleted record left out of the
// hash; the tree without the record reproduces the printed values, so
// nothing but the deleted record moved. First, when the per-path
// registry series (floc_path_admitted_packets_total,
// floc_path_dropped_packets_total and floc_path_conformance, all
// labelled {path=}) were deleted: ef8c6e6, which still matched c7a73ab's
// digests, hashed its registry text without every line containing
// "floc_path_". Second, when the write-only per-path control-run
// recorder (telemetry.PathSample) was deleted: a4c99fa hashed everything
// but its "recorder" line.
//
// The smax, legit and churn digests were then re-recorded for one
// intended decision change: an aggregated member's arrivedTokens is reset
// every control run, so a member expires once its traffic stops
// (TestAggregateMembersExpire). The plain and capability digests did not
// move.
//
// The capability digest was re-recorded once more for one intended
// decision change: the fan-out slot F(dst) became a keyed 64-bit mix of
// the destination under a key derived from Config.Seed, where it had been
// an HMAC-SHA256 under a fixed secret, so sources' destinations fall in
// other slots. No other digest moved.
//
// Every digest was re-recorded when the router's three per-path
// histograms (floc_router_bucket_occupancy, floc_router_mtd_seconds,
// floc_router_conformance) were deleted. The occupancy read advanced the
// bucket, so an attached router decided differently from a detached one
// (TestTelemetryIsPassive). 2fc2ee7, hashed without those three families,
// prints the plain, legit and capability values below: only the record
// moved there. On smax and churn the decisions moved too, to what
// 2fc2ee7 decides detached (its decisions digests ec3d2370… and
// 8fc2d5c1…, which this tree reproduces attached).
func TestControlLoopGolden(t *testing.T) {
	for _, sc := range goldenScenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			got, _, cov := runGolden(t, sc, false, false)
			if err := sc.covered(cov); err != "" {
				t.Fatalf("trace no longer exercises what it was written for: %s (%+v)", err, cov)
			}
			if got != sc.digest {
				t.Fatalf("digest %s, want %s (recorded at the parent commit)", got, sc.digest)
			}
		})
	}
}

// TestAggregateMembersExpire: on the smax trace every source on the
// attack paths under 20-3 and 21-3 has stopped by 18.5 s. Those paths,
// aggregated until then, must expire like any idle path, and their
// aggregates dissolve, well before the trace ends at 30 s.
func TestAggregateMembersExpire(t *testing.T) {
	i := slices.IndexFunc(goldenScenarios, func(sc goldenScenario) bool { return sc.name == "smax" })
	_, _, cov := runGolden(t, goldenScenarios[i], false, false)
	if cov.maxAggregates == 0 {
		t.Fatal("the smax trace formed no aggregate")
	}
	// Forming the aggregates and dissolving them are two plan changes at
	// least, and a control run changes the plan at most once.
	t.Logf("plan changes: %d in %d control runs", cov.planChanges, cov.controlRuns)
	if cov.planChanges < 2 || cov.planChanges > cov.controlRuns {
		t.Errorf("plan changes = %d in %d control runs, want 2..%d", cov.planChanges, cov.controlRuns, cov.controlRuns)
	}
	if len(cov.endAggregates) != 0 {
		t.Errorf("aggregates %v outlived their traffic", cov.endAggregates)
	}
	for _, key := range cov.endPaths {
		if strings.HasSuffix(key, "-20-3") || strings.HasSuffix(key, "-21-3") {
			t.Errorf("attack path %s is still live 11 s after its last packet (live: %v)", key, cov.endPaths)
		}
	}
}

// TestTelemetryIsPassive: observing a router must not change what it
// decides. Each golden trace is driven twice, once with telemetry attached
// and once detached, and the router's decisions alone — every
// checkpoint's Snapshot.String(), PathInfos() and DistinctDroppedFlows,
// with no event and no registry text — must fold to the same digest.
func TestTelemetryIsPassive(t *testing.T) {
	for _, sc := range goldenScenarios {
		t.Run(sc.name, func(t *testing.T) {
			_, attached, _ := runGolden(t, sc, false, false)
			_, detached, _ := runGolden(t, sc, false, true)
			if attached != detached {
				t.Fatalf("decisions digest %s with telemetry attached, %s detached", attached, detached)
			}
		})
	}
}

var goldenSkippedFamilies = []string{
	"floc_build_info",
	"floc_router_live_flows",
	"floc_router_attack_flows",
	"floc_router_expired_flows_total",
}

// goldenSource is one constant-rate packet source of a golden trace.
type goldenSource struct {
	path     pathid.PathID
	src, dst uint32
	// fanout > 1 spreads packets over dst..dst+fanout-1 (capability mode's
	// covert-flow shape).
	fanout uint32
	// every sends a burst each `every` steps; burst is its packet count.
	every, burst int
	// on/off windows in seconds: active while start <= t < stop, and again
	// from restart (0 = never).
	start, stop, restart float64
	// tcp sources open with a SYN and then send data (RTT sampling).
	tcp bool
}

// goldenCoverage records which control-loop situations a trace reached.
type goldenCoverage struct {
	maxAggregates int
	pathsExpired  int
	attackFlows   bool
	flowsShrank   bool
	// The last checkpoint's aggregates and live path keys.
	endAggregates []string
	endPaths      []string
	// Control runs, and those that changed the aggregation plan.
	controlRuns, planChanges int
}

type goldenScenario struct {
	name    string
	seed    uint64
	mut     func(*Config)
	sources []goldenSource
	seconds float64
	covered func(goldenCoverage) string
	digest  string
}

// hashSink folds every emitted event's canonical JSON into the digest.
type hashSink struct{ h hash.Hash }

func (s hashSink) Emit(e telemetry.Event) {
	b, err := json.Marshal(e)
	if err != nil {
		panic(err)
	}
	s.h.Write(b)
	s.h.Write([]byte{'\n'})
}

// runGolden drives sc's trace through a fresh router and returns the
// digest, and a second digest of the checkpoints alone: the router's
// decisions, which detached (no telemetry, so no events and no registry
// text in the first digest either) must not change. Each 2 ms step's packets share one arrival time, so they are
// collected first and then enqueued in order — which is all that
// TestControlLoopGolden has ever done — and with prefetch set the router
// reads ahead over each step's batch first, as a shard worker does.
func runGolden(t *testing.T, sc goldenScenario, prefetch, detached bool) (digest, decisions string, cov goldenCoverage) {
	t.Helper()
	// 8 Mb/s of 1000-byte packets = 1000 pkt/s: two services per 2 ms step.
	cfg := DefaultConfig(8e6, 100)
	cfg.ControlInterval = 0.25
	cfg.Seed = sc.seed
	if sc.mut != nil {
		sc.mut(&cfg)
	}
	r, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, d := sha256.New(), sha256.New()
	checkpoint := io.MultiWriter(h, d)
	var tel *telemetry.Telemetry
	if !detached {
		tel = telemetry.New(1 << 12)
		tel.Sink = hashSink{h}
		r.SetTelemetry(tel)
	}

	// Every other path is driven through its dense handle, the rest through
	// string keys, so both origin-resolution routes feed the control loop.
	keys := make([]string, len(sc.sources))
	handles := map[string]uint32{}
	for i, s := range sc.sources {
		keys[i] = s.path.Key()
		if _, seen := handles[keys[i]]; !seen {
			handles[keys[i]] = 0
			if i%2 == 0 {
				handles[keys[i]] = r.InternPath(s.path)
			}
		}
	}

	src := rng.New(sc.seed*0x9e3779b97f4a7c15 + 1)
	const dt = 0.002
	steps := int(sc.seconds / dt)
	opened := make([]bool, len(sc.sources))
	var batch []BatchItem
	prevFlows := map[string]int{}
	id := uint64(0)
	now := 0.0
	for step := 0; step < steps; step++ {
		now += dt
		batch = batch[:0]
		for i := range sc.sources {
			s := &sc.sources[i]
			active := (now >= s.start && now < s.stop) || (s.restart > 0 && now >= s.restart)
			if !active {
				opened[i] = false
				continue
			}
			if step%s.every != 0 {
				continue
			}
			for b := 0; b < s.burst; b++ {
				id++
				pkt := &netsim.Packet{
					ID: id, Src: s.src, Dst: s.dst, Size: 400 + src.Intn(1100),
					Kind: netsim.KindUDP, Path: s.path, PathKey: keys[i],
					PathHandle: handles[keys[i]],
				}
				if s.fanout > 1 {
					pkt.Dst += uint32(src.Intn(int(s.fanout)))
				}
				if s.tcp {
					pkt.Kind = netsim.KindData
					if !opened[i] {
						pkt.Kind = netsim.KindSYN
						pkt.Size = 40
						opened[i] = true
					}
				}
				batch = append(batch, BatchItem{Pkt: pkt, At: now})
			}
		}
		if prefetch {
			r.Prefetch(batch)
		}
		for _, it := range batch {
			r.Enqueue(it.Pkt, it.At)
		}
		for i := 0; i < 2; i++ {
			if r.Dequeue(now) == nil {
				break
			}
		}
		if step%500 != 499 {
			continue
		}
		// Checkpoint once per simulated second.
		snap := r.Snapshot()
		infos := r.PathInfos()
		fmt.Fprintf(checkpoint, "@%d\n%s%+v\n", step, snap.String(), infos)
		for _, info := range infos {
			distinct, est := r.DistinctDroppedFlows(info.Key, now)
			fmt.Fprintf(checkpoint, "%s %d %v\n", info.Key, distinct, est)
		}
		if len(snap.Aggregates) > cov.maxAggregates {
			cov.maxAggregates = len(snap.Aggregates)
		}
		cov.endAggregates, cov.endPaths = cov.endAggregates[:0], cov.endPaths[:0]
		for key := range snap.Aggregates {
			cov.endAggregates = append(cov.endAggregates, key)
		}
		slices.Sort(cov.endAggregates)
		seen := map[string]bool{}
		for _, info := range infos {
			cov.endPaths = append(cov.endPaths, info.Key)
			seen[info.Key] = true
			if info.AttackFlows > 0 {
				cov.attackFlows = true
			}
			if info.Flows < prevFlows[info.Key] {
				cov.flowsShrank = true
			}
			prevFlows[info.Key] = info.Flows
		}
		for key := range prevFlows {
			if !seen[key] {
				cov.pathsExpired++
				delete(prevFlows, key)
			}
		}
	}
	cov.controlRuns, cov.planChanges = r.ControlRuns(), r.PlanChanges()
	decisions = hex.EncodeToString(d.Sum(nil))
	if tel == nil {
		return hex.EncodeToString(h.Sum(nil)), decisions, cov
	}

	// The ring, oldest first, one canonical event encoding per line.
	for _, e := range tel.Trace.Events() {
		line, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(append(line, '\n'))
	}
	var text bytes.Buffer
	if err := tel.Registry.WriteText(&text); err != nil {
		t.Fatal(err)
	}
lines:
	for _, line := range strings.SplitAfter(text.String(), "\n") {
		for _, fam := range goldenSkippedFamilies {
			if strings.Contains(line, fam) {
				continue lines
			}
		}
		h.Write([]byte(line))
	}
	return hex.EncodeToString(h.Sum(nil)), decisions, cov
}

// goldenHogs returns n single-flow attack sources (4 packets every step,
// well over any fair share) on paths {base+i, mid, 3}; hog i stops at
// stop + i/2 seconds.
func goldenHogs(n int, base, mid pathid.ASN, stop float64) []goldenSource {
	out := make([]goldenSource, n)
	for i := range out {
		out[i] = goldenSource{
			path: pathid.New(base+pathid.ASN(i), mid, 3),
			src:  uint32(2000 + int(base) + i), dst: 2,
			every: 1, burst: 4, stop: stop + 0.5*float64(i),
		}
	}
	return out
}

// goldenFlows returns n UDP sources of `burst` packets every `every` steps
// on one path.
func goldenFlows(path pathid.PathID, firstSrc uint32, n, every, burst int, start, stop float64) []goldenSource {
	out := make([]goldenSource, n)
	for i := range out {
		out[i] = goldenSource{
			path: path, src: firstSrc + uint32(i), dst: 2,
			every: every, burst: burst, start: start, stop: stop,
		}
	}
	return out
}

// goldenGentle returns flows sources of one packet every `every` steps on
// one path; every other one is a TCP flow.
func goldenGentle(path pathid.PathID, firstSrc uint32, flows, every int, start, stop float64) []goldenSource {
	out := make([]goldenSource, flows)
	for i := range out {
		out[i] = goldenSource{
			path: path, src: firstSrc + uint32(i), dst: 2,
			every: every, burst: 1, start: start, stop: stop, tcp: i%2 == 0,
		}
	}
	return out
}

const goldenForever = 1e9

var goldenScenarios = []goldenScenario{
	{
		// Plain per-path guarantees: a dozen legitimate paths of differing
		// flow counts and two flooders congest the link.
		digest: "8bb230c640051483ea1ded99bf75660c72beb37cf28098c65f5d3ca1f2e03730",
		name:   "plain", seed: 3, seconds: 24,
		sources: slices.Concat(
			goldenGentle(pathid.New(11, 1), 100, 3, 40, 0, goldenForever),
			goldenGentle(pathid.New(12, 1), 110, 9, 60, 0, goldenForever),
			goldenGentle(pathid.New(13, 2), 130, 17, 90, 0, goldenForever),
			goldenGentle(pathid.New(14, 2), 160, 1, 25, 0, goldenForever),
			goldenGentle(pathid.New(15, 4, 2), 170, 5, 50, 1, goldenForever),
			goldenGentle(pathid.New(16, 4, 2), 180, 2, 35, 2, goldenForever),
			goldenHogs(2, 31, 20, goldenForever),
			// A flow mix inside an attack path: hogs beside gentle flows.
			goldenGentle(pathid.New(31, 20, 3), 300, 4, 45, 0, goldenForever),
		),
		covered: func(c goldenCoverage) string {
			if !c.attackFlows {
				return "no attack flows classified"
			}
			return ""
		},
	},
	{
		// |S|max attack-path aggregation with a short flow timeout, so flows
		// inside the aggregates expire run by run; the hogs stop one by one
		// from 14 s, after which the members expire and the aggregates
		// dissolve (TestAggregateMembersExpire).
		digest: "c4f1b19b008983813bccae088ef59d84c0f51b99c8252d69d693436b265fd8e6",
		name:   "smax", seed: 5, seconds: 30,
		mut: func(c *Config) {
			c.SMax = 6
			c.FlowTimeout = 0.6
		},
		sources: slices.Concat(
			goldenGentle(pathid.New(11, 1), 100, 2, 20, 0, goldenForever),
			goldenGentle(pathid.New(12, 1), 110, 3, 30, 0, goldenForever),
			goldenGentle(pathid.New(13, 2), 120, 1, 20, 0, goldenForever),
			goldenGentle(pathid.New(14, 2), 130, 2, 25, 0, goldenForever),
			goldenHogs(3, 31, 20, 14),
			goldenHogs(2, 41, 21, 18),
			// Inside the 20-3 aggregate: attack flows keep every member's
			// conformance low, two flows of the first member sit near the
			// aggregate's fair share, and two waves of flows on the last
			// member expire and move that share. Classifying a member
			// before every member has expired its flows shows up here.
			goldenFlows(pathid.New(31, 20, 3), 2100, 2, 1, 1, 0, 14),
			goldenFlows(pathid.New(31, 20, 3), 600, 1, 20, 1, 0, 14),
			goldenFlows(pathid.New(31, 20, 3), 601, 1, 22, 1, 0, 14),
			goldenFlows(pathid.New(33, 20, 3), 2300, 3, 1, 1, 0, 15),
			goldenFlows(pathid.New(33, 20, 3), 700, 3, 50, 1, 0, 6),
			goldenFlows(pathid.New(33, 20, 3), 720, 3, 50, 1, 8, 10),
		),
		covered: func(c goldenCoverage) string {
			switch {
			case c.maxAggregates < 2:
				return "fewer than two aggregates formed"
			case !c.flowsShrank:
				return "no flow population shrank"
			}
			return ""
		},
	},
	{
		// Legitimate-path aggregation of differently populated siblings; a
		// population change at 10 s and a hog sibling at 16 s re-plan it.
		digest: "59d9ad6135158788e9d8ac497790cdbbb194d20eb6a762e5d7ff99dfd65eabf9",
		name:   "legit", seed: 7, seconds: 28,
		mut: func(c *Config) { c.LegitAggregation = true },
		sources: slices.Concat(
			goldenGentle(pathid.New(41, 9, 1), 300, 2, 10, 0, goldenForever),
			goldenGentle(pathid.New(42, 9, 1), 310, 3, 10, 0, goldenForever),
			goldenGentle(pathid.New(42, 9, 1), 320, 2, 10, 10, goldenForever),
			goldenGentle(pathid.New(43, 5), 330, 1, 10, 0, goldenForever),
			goldenGentle(pathid.New(51, 8, 1), 340, 2, 15, 0, 9),
			goldenGentle(pathid.New(52, 8, 1), 350, 4, 15, 0, goldenForever),
			[]goldenSource{{
				path: pathid.New(44, 9, 1), src: 2900, dst: 2,
				every: 1, burst: 5, start: 16, stop: goldenForever,
			}},
		),
		covered: func(c goldenCoverage) string {
			if c.maxAggregates == 0 {
				return "no legitimate aggregate formed"
			}
			return ""
		},
	},
	{
		// Capability mode: sources fan out over many destinations and
		// collapse onto NMax accounting slots; one of them floods.
		digest: "76243450f17887067177a117e6841567bf3fffbabb0c26ceb4997e31589f83f5",
		name:   "capability", seed: 11, seconds: 20,
		mut: func(c *Config) { c.NMax = 3 },
		sources: []goldenSource{
			{path: pathid.New(7, 1), src: 1, dst: 50, fanout: 20, every: 2, burst: 1, stop: goldenForever},
			{path: pathid.New(7, 1), src: 2, dst: 50, fanout: 5, every: 5, burst: 1, stop: goldenForever},
			{path: pathid.New(8, 1), src: 3, dst: 90, fanout: 40, every: 1, burst: 4, stop: 12},
			{path: pathid.New(8, 1), src: 4, dst: 90, fanout: 2, every: 20, burst: 1, stop: goldenForever, tcp: true},
			{path: pathid.New(9, 2), src: 5, dst: 10, fanout: 8, every: 4, burst: 1, start: 3, stop: goldenForever},
		},
		covered: func(c goldenCoverage) string {
			if !c.attackFlows {
				return "no attack flows classified"
			}
			return ""
		},
	},
	{
		// Expiry churn: waves of short-lived paths and flows, a flow that
		// expires and returns on a surviving path, a path that expires and
		// returns, and a large flow population that collapses (table
		// shrink). The scalable-mode knobs ride along.
		digest: "f96cd8d068a60d58388b044a353965032b16dda0757cc36286492f4a269fc856",
		name:   "churn", seed: 13, seconds: 36,
		mut: func(c *Config) {
			c.SMax = 10
			c.FilterK = 2
			c.ProbabilisticUpdate = true
		},
		sources: slices.Concat(
			goldenGentle(pathid.New(11, 1), 100, 2, 20, 0, goldenForever),
			[]goldenSource{
				// Expires (timeout 5 s) and returns at 14 s.
				{path: pathid.New(11, 1), src: 105, dst: 2, every: 20, burst: 1, stop: 2, restart: 14, tcp: true},
				// The whole path expires and returns.
				{path: pathid.New(19, 6), src: 190, dst: 2, every: 10, burst: 1, stop: 3, restart: 20},
			},
			// 40 flows, 34 of which stop at 6 s.
			goldenGentle(pathid.New(12, 1), 400, 34, 200, 0, 6),
			goldenGentle(pathid.New(12, 1), 440, 6, 100, 0, goldenForever),
			// Waves of paths under shared parents.
			goldenGentle(pathid.New(61, 30, 3), 500, 3, 30, 0, 4),
			goldenGentle(pathid.New(62, 30, 3), 510, 2, 30, 2, 7),
			goldenGentle(pathid.New(63, 30, 3), 520, 4, 30, 5, 11),
			goldenGentle(pathid.New(64, 31, 3), 530, 1, 30, 8, 15),
			goldenGentle(pathid.New(65, 31, 3), 540, 5, 30, 12, 19),
			goldenGentle(pathid.New(66, 31, 3), 550, 2, 30, 16, 24),
			goldenHogs(4, 71, 40, 17),
			goldenHogs(3, 81, 40, 26),
			goldenHogs(2, 91, 41, goldenForever),
		),
		covered: func(c goldenCoverage) string {
			switch {
			case c.pathsExpired < 6:
				return "too few paths expired"
			case !c.flowsShrank:
				return "no flow population shrank"
			case c.maxAggregates == 0:
				return "no aggregate formed"
			}
			return ""
		},
	},
}
