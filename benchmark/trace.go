package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"

	"floc/internal/cluster"
	"floc/internal/core"
	"floc/internal/dataplane"
	"floc/internal/defense"
	"floc/internal/dropfilter"
	"floc/internal/netsim"
	"floc/internal/telemetry"
	"floc/internal/units"
	"floc/internal/wire"
)

// The traced run times the calls flocd makes into each module, from the
// benchmark's side of the API. A time.Now pair per packet would cost more
// than the 20 ns stages it times, so packets go through in batches of
// stageBatch, stage-major: one span per stage per batch.
const stageBatch = 256

// span is one timed interval. Spans of one batch share the batch span as
// parent; a batch span's parent is 0.
type span struct {
	ID       int    `json:"id"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing: the same pipeline code is the untraced run.
type tracer struct {
	workload string
	spans    []span
}

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name, StartNS: nanos(), Parent: parent, Workload: t.workload})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id-1].EndNS = nanos()
	}
}

func (t *tracer) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+t.workload+".json"), b, 0o644)
}

// selfTimes returns, per span name, the total of each span's duration
// minus the part of it its child spans cover.
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]int64)
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, edge), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.Name] += s.EndNS - s.StartNS - covered
	}
	return self
}

// allocSampler reads the runtime's cumulative heap allocation counters,
// which, unlike runtime.ReadMemStats, does not stop the world.
type allocSampler struct{ s [2]metrics.Sample }

func newAllocSampler() *allocSampler {
	a := &allocSampler{}
	a.s[0].Name = "/gc/heap/allocs:objects"
	a.s[1].Name = "/gc/heap/allocs:bytes"
	return a
}

func (a *allocSampler) read() (objects, bytes uint64) {
	metrics.Read(a.s[:])
	return a.s[0].Value.Uint64(), a.s[1].Value.Uint64()
}

// collector is the in-process stand-in for flocd's udpForwarder: shard
// workers hand it every transmitted packet; the pipeline then encodes them
// as its own timed stage.
type collector struct {
	mu   sync.Mutex
	pkts []*netsim.Packet
}

func (c *collector) Emit(pkt *netsim.Packet, now float64) {
	c.mu.Lock()
	c.pkts = append(c.pkts, pkt)
	c.mu.Unlock()
}

// pipeStats are the counts taken beside the engine pass's spans.
type pipeStats struct {
	packets      int64
	internMisses int64
	forwarded    int64
	ingestAllocs uint64
	ingestBytes  uint64
	internPathNS int64 // total of the Engine.InternPath round trips
	wallNS       int64
	stats        dataplane.Stats
	writeTextNS  int64 // one Registry.WriteText at the run's registry size
	installNS    int64 // mean Engine.InstallLimit round trip (udp_limited)
}

// source yields the workload's packets to the in-process pipeline in
// schedule order, stageBatch at a time, the way flocd's ingest sees them:
// datagrams to decode (live) or capture lines to parse (replay).
type source struct {
	w   workload
	tr  *traffic
	pos int

	cr *wire.CaptureReader // replay only
	f  *os.File

	probeBuf []byte
}

func openSource(w workload, tr *traffic, capture string) (*source, error) {
	s := &source{w: w, tr: tr, probeBuf: make([]byte, wire.MaxEncodedLen)}
	if !w.live {
		f, err := os.Open(capture)
		if err != nil {
			return nil, err
		}
		s.cr = wire.NewCaptureReader(bufio.NewReader(f))
		s.cr.SkipMalformed(true)
		s.f = f
	}
	return s, nil
}

func (s *source) close() {
	if s.f != nil {
		_ = s.f.Close() // read-only file
	}
}

// arrival is packet i's arrival time on the engine's clock: live packets
// arrive in their 1 ms tick, replayed ones when the capture says.
// floc:unit return seconds
func arrival(w workload, packets, i int) float64 {
	if w.live {
		return float64(i/(w.rate/1000)) * 1e-3
	}
	return captureTime(w, i, packets)
}

// next fills hdrs and at with up to stageBatch packets under one ingest
// span and returns how many it produced.
func (s *source) next(tc *tracer, parent int, hdrs []wire.Header, at []float64) (int, error) {
	n := min(stageBatch, len(s.tr.sched)-s.pos)
	if s.w.live {
		sp := tc.begin("wire.decode", parent)
		for k := 0; k < n; k++ {
			i := s.pos + k
			if _, err := wire.Decode(s.tr.frame(i, s.probeBuf), &hdrs[k]); err != nil {
				return 0, err
			}
			at[k] = arrival(s.w, len(s.tr.sched), i)
		}
		tc.end(sp)
	} else {
		sp := tc.begin("wire.capture_next", parent)
		for k := 0; k < n; k++ {
			t, err := s.cr.Next(&hdrs[k])
			if err != nil {
				return 0, fmt.Errorf("capture line %d: %w", s.cr.Line(), err)
			}
			at[k] = t
		}
		tc.end(sp)
	}
	s.pos += n
	return n, nil
}

// nopTransport discards control frames; the in-process node has no peers.
type nopTransport struct{}

func (nopTransport) Send(string, []byte) error { return nil }

// runPipeline drives the workload through a real dataplane.Engine
// configured as flocd configures it, making the calls serveUDP,
// replayCapture, clusterLoop and udpForwarder.Emit make, stage by stage.
func runPipeline(w workload, tr *traffic, capture string, tc *tracer) (pipeStats, error) {
	var ps pipeStats
	src, err := openSource(w, tr, capture)
	if err != nil {
		return ps, err
	}
	defer src.close()

	reg := telemetry.NewRegistry()
	rc := core.DefaultConfig(w.link, 512)
	rc.Seed = 7 // flocd's -seed default
	cfg := dataplane.Config{
		Router: rc, Shards: 2, RingSize: 1024, Batch: 64,
		BlockOnFull: !w.live, Telemetry: reg, TraceCapacity: 65536,
	}
	var egress *collector
	if w.live {
		egress = &collector{}
		cfg.Egress = egress
	}
	e, err := dataplane.New(cfg)
	if err != nil {
		return ps, err
	}
	defer e.Close()

	var node *cluster.Node
	var limitSeq uint64
	handleLimits := func(parent int, at float64) error {
		now := at //floc:unit seconds
		limitSeq++
		frame, err := limitFrame(tr, limitSeq)
		if err != nil {
			return err
		}
		sp := tc.begin("cluster.handle_frame", parent)
		applied, err := node.HandleFrame(frame, now)
		tc.end(sp)
		if err != nil || applied != len(tr.attackPathIDs()) {
			return fmt.Errorf("in-process HandleFrame applied %d of %d limits: %v", applied, len(tr.attackPathIDs()), err)
		}
		return nil
	}
	if w.limited {
		node, err = cluster.New(cluster.Config{
			RouterID: 1, Transport: nopTransport{}, Installer: e, PacketSize: rc.PacketSize, Telemetry: reg,
		})
		if err != nil {
			return ps, err
		}
		if err := handleLimits(0, 0); err != nil {
			return ps, err
		}
	}

	var alloc *allocSampler
	if tc != nil {
		alloc = newAllocSampler()
	}
	in := wire.NewInterner()
	hdrs := make([]wire.Header, stageBatch)
	at := make([]float64, stageBatch)
	res := make([]wire.Resolved, stageBatch)
	pkts := make([]*netsim.Packet, stageBatch)
	out := make([]wire.Header, 0, 2*stageBatch)
	buf := make([]byte, 0, wire.MaxEncodedLen)
	// clusterLoop runs at 4 Hz and the benchmark re-sends limits every 5 s;
	// on the engine's clock that is every rate/4 and 5*rate packets.
	loopEvery, resendEvery := int64(w.rate/4), int64(5*w.rate)
	nextLoop, nextResend := loopEvery, resendEvery

	start := nanos()
	var end float64 //floc:unit seconds
	for src.pos < len(tr.sched) {
		batch := tc.begin("batch", 0)
		n, err := src.next(tc, batch, hdrs, at)
		if err != nil {
			return ps, err
		}

		sp := tc.begin("wire.intern", batch)
		for k := 0; k < n; k++ {
			res[k] = in.ResolveFull(&hdrs[k])
			if !res[k].Bound {
				ps.internMisses++
				t0 := nanos()
				res[k].Handle = e.InternPath(res[k].ID)
				ps.internPathNS += nanos() - t0
				in.BindHandle(&hdrs[k], res[k].Handle)
			}
		}
		tc.end(sp)

		var o0, b0 uint64
		if alloc != nil {
			o0, b0 = alloc.read()
		}
		sp = tc.begin("wire.to_packet", batch)
		for k := 0; k < n; k++ {
			pkts[k] = &netsim.Packet{}
			hdrs[k].ToPacket(pkts[k], uint64(ps.packets)+uint64(k)+1, res[k].ID, res[k].Key, res[k].Handle)
		}
		tc.end(sp)
		if alloc != nil {
			o1, b1 := alloc.read()
			ps.ingestAllocs += o1 - o0
			ps.ingestBytes += b1 - b0
		}

		sp = tc.begin("dataplane.enqueue", batch)
		for k := 0; k < n; k++ {
			e.Enqueue(pkts[k], at[k])
		}
		tc.end(sp)
		sp = tc.begin("dataplane.drain_wait", batch)
		e.Drain()
		tc.end(sp)
		ps.packets += int64(n)
		end = at[n-1]

		if egress != nil {
			// Workers are idle after Drain, so the collector is ours.
			sent := egress.pkts
			out = out[:0]
			sp = tc.begin("wire.from_packet", batch)
			for _, pkt := range sent {
				var h wire.Header
				if err := wire.FromPacket(&h, pkt); err != nil {
					return ps, err
				}
				out = append(out, h)
			}
			tc.end(sp)
			sp = tc.begin("wire.marshal", batch)
			for k := range out {
				if buf, err = wire.MarshalAppend(buf[:0], &out[k]); err != nil {
					return ps, err
				}
			}
			tc.end(sp)
			ps.forwarded += int64(len(sent))
			egress.pkts = egress.pkts[:0]
		}

		if node != nil && ps.packets >= nextLoop {
			nextLoop += loopEvery
			sp = tc.begin("dataplane.snapshot_barrier", batch)
			snap := e.Snapshot()
			tc.end(sp)
			sp = tc.begin("cluster.publish", batch)
			node.Publish(snap, end)
			node.Tick(end)
			tc.end(sp)
			e.SweepLimits(end)
			if ps.packets >= nextResend {
				nextResend += resendEvery
				if err := handleLimits(batch, end); err != nil {
					return ps, err
				}
			}
		}
		tc.end(batch)
	}
	if !w.live {
		e.Advance(end) // replay flushes the transmitters; the live daemon does not
	}
	ps.wallNS = nanos() - start
	ps.stats = e.Stats()

	if tc != nil {
		t0 := nanos()
		if err := reg.WriteText(io.Discard); err != nil {
			return ps, err
		}
		ps.writeTextNS = nanos() - t0
		if w.limited {
			paths := tr.attackPathIDs()
			t0 = nanos()
			for _, p := range paths {
				if !e.InstallLimit(p, units.BitsPerSec(limitBits), end+60, limitOrigin, end) {
					return ps, errors.New("in-process InstallLimit refused a limit")
				}
			}
			ps.installNS = (nanos() - t0) / int64(len(paths))
		}
	}
	return ps, nil
}

// coreStats are the counts of the standalone-module passes.
type coreStats struct {
	arrived, admitted, dequeued int64
	allocs                      uint64
	recordOps, queryOps         int64 // drop-filter calls the router made
	bankAttempts, bankDrops     int64
}

// runModules feeds the workload's packets and arrival times to standalone
// modules, outside any pipeline: a core.Router in admission batches of 64
// served like a shard serves it, a dropfilter.Filter over the flow-id
// stream, and a defense.LimiterBank holding the workload's limits.
func runModules(w workload, tr *traffic, tc *tracer) (coreStats, error) {
	var cs coreStats
	rc := core.DefaultConfig(w.link, 512)
	rc.Seed = 7
	if err := routerPass(w, tr, tc, rc, &cs); err != nil {
		return cs, err
	}
	if cs.queryOps > 0 || cs.recordOps > 0 {
		if err := filterPass(w, tr, tc, rc, &cs); err != nil {
			return cs, err
		}
	}
	if w.limited {
		bankPass(w, tr, tc, &cs)
	}
	return cs, nil
}

func routerPass(w workload, tr *traffic, tc *tracer, rc core.Config, cs *coreStats) error {
	r, err := core.NewRouter(rc)
	if err != nil {
		return err
	}
	reg := telemetry.NewRegistry()
	r.SetTelemetry(&telemetry.Telemetry{Registry: reg, Trace: telemetry.NewTrace(65536)})
	alloc := newAllocSampler()
	handles := make([]uint32, len(tr.paths)+1)
	keys := make([]string, len(tr.paths)+1)
	const admitBatch = 64
	items := make([]core.BatchItem, 0, admitBatch)
	//floclint:allow units bits-to-bytes: the transmitter drains Size bytes at the link rate, 8 bits per byte
	rateBytes := rc.LinkRateBits / 8 //floc:unit bytes/s
	free := 0.0                      //floc:unit seconds
	for i := range tr.sched {
		p, h := tr.packet(i)
		if keys[p] == "" {
			keys[p] = tr.pathID(p).Key()
			handles[p] = r.InternPath(tr.pathID(p))
		}
		pkt := &netsim.Packet{}
		h.ToPacket(pkt, uint64(i)+1, tr.pathID(p), keys[p], handles[p])
		items = append(items, core.BatchItem{Pkt: pkt, At: arrival(w, len(tr.sched), i)})
		if len(items) < admitBatch && i != len(tr.sched)-1 {
			continue
		}
		// Serve the link up to the batch head, as shard.process does.
		sp := tc.begin("core.dequeue", 0)
		for now := items[0].At; free <= now; {
			out := r.Dequeue(free)
			if out == nil {
				free = now
				break
			}
			free += float64(out.Size) / rateBytes
			cs.dequeued++
		}
		tc.end(sp)
		o0, _ := alloc.read()
		sp = tc.begin("core.enqueue_batch", 0)
		cs.admitted += int64(r.EnqueueBatch(items))
		tc.end(sp)
		o1, _ := alloc.read()
		cs.allocs += o1 - o0
		cs.arrived += int64(len(items))
		items = items[:0]
	}
	// The router publishes its filter call counts at control-run
	// boundaries, so these are as of the last one.
	cs.recordOps = reg.CounterValue("floc_filter_record_ops_total")
	cs.queryOps = reg.CounterValue("floc_filter_query_ops_total")
	return nil
}

// filterPass times Query on every packet's flow hash and RecordDrop on the
// attack packets' — the per-call cost; how often the router makes each
// call is routerPass's recordOps and queryOps.
func filterPass(w workload, tr *traffic, tc *tracer, rc core.Config, cs *coreStats) error {
	f, err := dropfilter.New(rc.Filter)
	if err != nil {
		return err
	}
	hashes := make([]uint64, 0, stageBatch)
	drops := make([]uint64, 0, stageBatch)
	flush := func(at float64) {
		now := at //floc:unit seconds
		sp := tc.begin("dropfilter.query", 0)
		for _, h := range hashes {
			f.Query(h, now, rc.DefaultRTT, 0)
		}
		tc.end(sp)
		sp = tc.begin("dropfilter.record", 0)
		for _, h := range drops {
			f.RecordDrop(h, now, rc.DefaultRTT, 0, 1)
		}
		tc.end(sp)
		hashes, drops = hashes[:0], drops[:0]
	}
	for i, slot := range tr.sched {
		if slot == probeSlot {
			continue
		}
		h := dropfilter.FlowHash(tr.headers[slot].Src, tr.headers[slot].Dst)
		hashes = append(hashes, h)
		if tr.isAttack(slot) {
			drops = append(drops, h)
		}
		if len(hashes) == stageBatch {
			flush(arrival(w, len(tr.sched), i))
		}
	}
	flush(arrival(w, len(tr.sched), len(tr.sched)-1))
	return nil
}

// bankPass runs every packet through a LimiterBank holding the workload's
// limits, keyed by path index + 1 (handle 0 means "no path").
func bankPass(w workload, tr *traffic, tc *tracer, cs *coreStats) {
	bank := defense.NewLimiterBank()
	for p := tr.nLegit; p < len(tr.paths); p++ {
		bank.Install(uint32(p)+1, units.BitsPerSec(limitBits), 0)
	}
	scratch := make([]netsim.Packet, stageBatch)
	for lo := 0; lo < len(tr.sched); lo += stageBatch {
		hi := min(lo+stageBatch, len(tr.sched))
		for i := lo; i < hi; i++ {
			scratch[i-lo] = netsim.Packet{Size: packetLength}
		}
		sp := tc.begin("defense.bank_admit", 0)
		for i := lo; i < hi; i++ {
			p, _ := tr.packet(i)
			bank.Admit(uint32(p)+1, &scratch[i-lo], arrival(w, len(tr.sched), i))
		}
		tc.end(sp)
	}
	cs.bankAttempts, cs.bankDrops = int64(len(tr.sched)), int64(bank.Drops())
}
