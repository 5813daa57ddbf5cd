package main

import (
	"bufio"
	"fmt"
	"os"

	"floc/internal/netsim"
	"floc/internal/pathid"
	"floc/internal/rng"
	"floc/internal/wire"
)

// workload is one traffic mix. Live workloads are open-loop UDP through
// the real daemon; the replay workload is a closed-loop capture replay.
type workload struct {
	name string
	why  string

	live         bool
	rate         int     // live: offered packets/s
	legitPaths   int     // paths sending one packet per round
	attackPaths  int     // paths sending attackWeight packets per round, FlagAttack set
	flows        int     // flows per path
	attackWeight int     // attack-path packets per legit-path packet
	link         float64 // flocd -link, bits/s
	limited      bool    // install per-attack-path limits over the control port

	capPackets int     // replay: packets in the capture
	capSeconds float64 //floc:unit seconds (replay: virtual time the capture spans)
}

// The virtual link counts Length bytes per packet; the wire carries only
// the 26-byte shim header (3-hop path), so packet size is stated here, not
// swept.
const (
	packetLength = 1000       // bytes charged to the virtual link per packet
	victimDst    = 0xc0a80001 // every flow targets one destination
	probeDst     = 0xc0a800fe // probes are told apart at the sink by Dst
	probeEvery   = 128        // one probe per this many live packets
	probeSlot    = ^uint32(0) // schedule marker: "send the next probe"
	limitBits    = 16_000_000 // udp_limited: bits/s allowed per attack path
	limitOrigin  = 99         // router ID the benchmark's control frames claim
)

var workloads = []workload{
	{
		name: "udp_clean",
		why:  "bare forwarding on a never-congested link: socket, codec, ring and egress do all the work, admission policy almost none",
		live: true, rate: 40000, legitPaths: 64, flows: 16, link: 8e9,
	},
	{
		name: "udp_flood",
		why:  "50% attack traffic on a congested link: token buckets, drop filter and preferential drop do the work, half the packets never reach egress",
		live: true, rate: 40000, legitPaths: 64, attackPaths: 8, flows: 16, attackWeight: 8, link: 200e6,
	},
	{
		name: "udp_limited",
		why:  "udp_flood plus cluster limits on the attack paths: LimiterBank sheds ahead of admission while the 4 Hz snapshot barrier runs beside it",
		live: true, rate: 40000, legitPaths: 64, attackPaths: 8, flows: 16, attackWeight: 8, link: 200e6, limited: true,
	},
	{
		name:       "replay_mix",
		why:        "closed-loop capture replay, 65536 flows on 4096 paths and no sockets: capture parse, interner misses and table growth dominate",
		legitPaths: 3072, attackPaths: 1024, flows: 16, attackWeight: 8, link: 200e6,
		capPackets: 1_000_000, capSeconds: 20,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// traffic is a workload's generated input: the distinct (path, flow)
// headers, their wire encodings, and the order packets are sent in.
type traffic struct {
	headers []wire.Header
	frames  [][]byte
	paths   []pathid.PathID // by path index; attack paths come last
	nLegit  int             // paths[:nLegit] are legitimate
	flows   int

	sched  []uint32 // packet i carries headers[sched[i]], or probeSlot
	legit  int64    // legitimate packets in sched (probes included)
	attack int64    // FlagAttack packets in sched
	probes int64    // probe packets in sched

	probe     wire.Header // template; Src is set per probe
	probePath pathid.PathID
}

// pathID returns path p's identifier; index len(paths) is the probe path.
func (t *traffic) pathID(p int) pathid.PathID {
	if p == len(t.paths) {
		return t.probePath
	}
	return t.paths[p]
}

// frame returns packet i's datagram. Probes carry their sequence number
// in Src and are encoded into buf; every other frame is pre-encoded.
func (t *traffic) frame(i int, buf []byte) []byte {
	s := t.sched[i]
	if s != probeSlot {
		return t.frames[s]
	}
	h := t.probe
	h.Src = uint32(i / probeEvery)
	b, _ := wire.MarshalAppend(buf[:0], &h) // generate already encoded this header once
	return b
}

// packet returns packet i's path index and header; probes travel on path
// index len(paths) with the probe template as header.
func (t *traffic) packet(i int) (int, *wire.Header) {
	s := t.sched[i]
	if s == probeSlot {
		return len(t.paths), &t.probe
	}
	return t.pathOf(s), &t.headers[s]
}

// pathOf returns the path index of header slot s.
func (t *traffic) pathOf(s uint32) int { return int(s) / t.flows }

// isAttack reports whether header slot s is on an attack path.
func (t *traffic) isAttack(s uint32) bool { return t.pathOf(s) >= t.nLegit }

// attackPathIDs returns the attack paths, in path-index order.
func (t *traffic) attackPathIDs() []pathid.PathID { return t.paths[t.nLegit:] }

// generate builds a workload's input from the seed alone: equal seeds give
// byte-identical frames and schedules. The seed picks the origin ASNs, the
// order of paths within each round and the flow each packet belongs to.
func generate(w workload, seed uint64, packets int) (*traffic, error) {
	src := rng.New(seed)
	nPaths := w.legitPaths + w.attackPaths
	t := &traffic{nLegit: w.legitPaths, flows: w.flows}

	// Origin ASNs are a seeded sample without replacement, so path keys
	// are distinct within a run and differ across seeds.
	origins := src.Perm(4 * (nPaths + 1))
	mkPath := func(i int) pathid.PathID {
		return pathid.New(pathid.ASN(10000+origins[i]), pathid.ASN(100+src.Intn(8)), 1)
	}
	mkHeader := func(p pathid.PathID, srcAddr, dst uint32, attack bool) wire.Header {
		h := wire.Header{
			Version: wire.Version1,
			Kind:    netsim.KindUDP,
			Src:     srcAddr,
			Dst:     dst,
			Length:  packetLength,
			PathLen: uint8(len(p)),
		}
		copy(h.Path[:], p)
		if attack {
			h.Flags |= wire.FlagAttack
		}
		return h
	}
	for p := 0; p < nPaths; p++ {
		path := mkPath(p)
		t.paths = append(t.paths, path)
		for f := 0; f < w.flows; f++ {
			h := mkHeader(path, 0x0a000000|uint32(p)<<8|uint32(f), victimDst, p >= w.legitPaths)
			frame, err := wire.MarshalAppend(nil, &h)
			if err != nil {
				return nil, fmt.Errorf("encoding path %d flow %d: %w", p, f, err)
			}
			t.headers = append(t.headers, h)
			t.frames = append(t.frames, frame)
		}
	}
	t.probePath = mkPath(nPaths)
	t.probe = mkHeader(t.probePath, 0, probeDst, false)
	if _, err := wire.MarshalAppend(nil, &t.probe); err != nil {
		return nil, fmt.Errorf("encoding the probe header: %w", err)
	}

	// One round sends each legit path once and each attack path
	// attackWeight times, in a freshly shuffled order.
	var round []int
	for p := 0; p < nPaths; p++ {
		reps := 1
		if p >= w.legitPaths {
			reps = w.attackWeight
		}
		for r := 0; r < reps; r++ {
			round = append(round, p)
		}
	}
	t.sched = make([]uint32, 0, packets)
	next := len(round)
	for len(t.sched) < packets {
		if w.live && len(t.sched)%probeEvery == probeEvery-1 {
			t.sched = append(t.sched, probeSlot)
			t.legit++
			t.probes++
			continue
		}
		if next == len(round) {
			src.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
			next = 0
		}
		p := round[next]
		next++
		t.sched = append(t.sched, uint32(p*w.flows+src.Intn(w.flows)))
		if p >= w.legitPaths {
			t.attack++
		} else {
			t.legit++
		}
	}
	return t, nil
}

// captureTime is packet i's virtual arrival time in a replay capture.
// floc:unit return seconds
func captureTime(w workload, i, packets int) float64 {
	return float64(i) * w.capSeconds / float64(packets)
}

// writeCapture writes the schedule as an NDJSON capture flocd can replay.
func writeCapture(path string, w workload, t *traffic) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close() // the success path checks Close below
	bw := bufio.NewWriterSize(f, 1<<20)
	cw := wire.NewCaptureWriter(bw)
	for i, s := range t.sched {
		if err := cw.Write(captureTime(w, i, len(t.sched)), &t.headers[s]); err != nil {
			return fmt.Errorf("writing capture record %d: %w", i, err)
		}
	}
	if err := cw.Flush(); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// limitFrame builds the control frame udp_limited installs: one record per
// attack path at limitBits, leased for 60 s.
func limitFrame(t *traffic, seq uint64) ([]byte, error) {
	f := wire.ControlFrame{
		Version:   wire.ControlVersion1,
		Kind:      wire.ControlFeedback,
		Origin:    limitOrigin,
		Seq:       seq,
		TTLMillis: 60000,
	}
	for _, p := range t.attackPathIDs() {
		r := &f.Records[f.NumRecords]
		if err := r.SetPath(p); err != nil {
			return nil, err
		}
		r.LimitBits = limitBits
		f.NumRecords++
	}
	return wire.MarshalControlAppend(nil, &f)
}
