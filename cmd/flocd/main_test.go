package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"floc/internal/cluster"
	"floc/internal/core"
	"floc/internal/dataplane"
	"floc/internal/ledger"
	"floc/internal/netsim"
	"floc/internal/pathid"
	"floc/internal/rng"
	"floc/internal/telemetry"
	"floc/internal/wire"
)

func newTestEngine(t *testing.T, reg *telemetry.Registry, shards int) *dataplane.Engine {
	t.Helper()
	rc := core.DefaultConfig(8e6, 512)
	rc.Seed = 7
	e, err := dataplane.New(dataplane.Config{
		Router: rc, Shards: shards, BlockOnFull: true, Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestGenerateReplayEndToEnd(t *testing.T) {
	var capture bytes.Buffer
	const packets = 5000
	if err := generateCapture(&capture, packets, 7); err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	e := newTestEngine(t, reg, 4)
	defer e.Close()
	n, malformed, end, err := replayCapture(context.Background(), bytes.NewReader(capture.Bytes()), e, reg)
	if err != nil {
		t.Fatal(err)
	}
	if n != packets {
		t.Fatalf("replayed %d packets, want %d", n, packets)
	}
	if malformed != 0 {
		t.Fatalf("clean capture reported %d malformed lines", malformed)
	}
	if got := reg.CounterValue("floc_capture_malformed_lines_total"); got != 0 {
		t.Fatalf("malformed counter = %d on a clean capture", got)
	}
	if end <= 0 {
		t.Fatalf("capture end time %v", end)
	}
	e.Advance(end + 10)
	snap := e.Snapshot()
	if snap.Arrived != packets {
		t.Fatalf("router saw %d packets, want %d", snap.Arrived, packets)
	}
	if len(snap.Paths) != 9 {
		t.Fatalf("%d paths, want 9 (8 legitimate + 1 flooder)", len(snap.Paths))
	}
	// The generator's flooding path sends 8x a legitimate path's rate
	// into a congested link; it must absorb the bulk of the drops.
	tally := map[bool][2]int64{}
	for _, p := range snap.Paths {
		v := tally[p.Key == "108-12-1"]
		v[0] += p.AdmittedPackets
		v[1] += p.DroppedPackets
		tally[p.Key == "108-12-1"] = v
	}
	atk, legit := tally[true], tally[false]
	if atk[1] == 0 {
		t.Fatal("flooding path was never dropped; capture did not congest the link")
	}
	if legitRatio, atkRatio := ratio(legit), ratio(atk); legitRatio <= atkRatio {
		t.Fatalf("legitimate admit ratio %.2f not above flooder's %.2f", legitRatio, atkRatio)
	}

	st := e.Stats()
	if st.Processed != packets || st.RingDrops != 0 {
		t.Fatalf("stats %+v after blocking replay of %d", st, packets)
	}

	// The merged run is visible over HTTP in Prometheus text form.
	srv := httptest.NewServer(serveMux(reg, nil, false))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	if !strings.Contains(text, "floc_router_arrived_packets_total") || len(text) < 100 {
		t.Fatalf("/metrics not a populated exposition:\n%.200s", text)
	}
	// The flow population — what control-run cost scales with — is part of
	// the exposition -print-metrics and /metrics share, its gauges per shard.
	for _, series := range []string{`floc_router_live_flows{shard="3"}`, `floc_router_attack_flows{shard="3"}`, "floc_router_expired_flows_total"} {
		if !strings.Contains(text, "\n"+series+" ") {
			t.Fatalf("/metrics lacks %s", series)
		}
	}
}

func ratio(v [2]int64) float64 {
	if v[0]+v[1] == 0 {
		return 0
	}
	return float64(v[0]) / float64(v[0]+v[1])
}

// splitCapture cuts a capture into its 24-byte global header and its
// records, each a 16-byte record header and the frame it declares.
func splitCapture(capture []byte) (header []byte, records [][]byte) {
	header, rest := capture[:24], capture[24:]
	for len(rest) > 0 {
		n := 16 + int(binary.LittleEndian.Uint32(rest[8:]))
		records, rest = append(records, rest[:n]), rest[n:]
	}
	return header, records
}

// pcapRecord assembles a record by hand: time 1 ms, the captured and
// original lengths as given, then frame.
func pcapRecord(incl, orig uint32, frame []byte) []byte {
	le := binary.LittleEndian
	b := le.AppendUint32(le.AppendUint32(nil, 0), 1_000_000)
	return append(le.AppendUint32(le.AppendUint32(b, incl), orig), frame...)
}

// TestReplayCountsMalformedLines checks the lenient replay path: bad
// capture records are skipped by their declared length, counted in the
// summary return, and published on the malformed-lines counter family —
// the good records around them still replay.
func TestReplayCountsMalformedLines(t *testing.T) {
	var capture bytes.Buffer
	const packets = 100
	if err := generateCapture(&capture, packets, 7); err != nil {
		t.Fatal(err)
	}
	header, records := splitCapture(capture.Bytes())
	frame := records[0][16:]
	n := uint32(len(frame))
	// Splice breakage between valid records: a full-size 14-byte header
	// with version 0xff, rejected by the codec proper; a packet captured
	// short of its length; a frame with a byte after the header; and a
	// frame longer than any header.
	mangled := [][]byte{
		header,
		records[0],
		pcapRecord(14, 14, append([]byte{0xff}, make([]byte, 13)...)),
		pcapRecord(n, n+1, frame),
		pcapRecord(n+1, n+1, append(append([]byte(nil), frame...), 0)),
		pcapRecord(wire.MaxEncodedLen+1, wire.MaxEncodedLen+1, make([]byte, wire.MaxEncodedLen+1)),
	}
	mangled = append(mangled, records[1:]...)
	input := bytes.Join(mangled, nil)

	reg := telemetry.NewRegistry()
	e := newTestEngine(t, reg, 2)
	defer e.Close()
	got, malformed, end, err := replayCapture(context.Background(), bytes.NewReader(input), e, reg)
	if err != nil {
		t.Fatal(err)
	}
	if got != packets {
		t.Fatalf("replayed %d packets, want %d despite malformed records", got, packets)
	}
	if malformed != 4 {
		t.Fatalf("malformed = %d, want 4", malformed)
	}
	e.Advance(end + 1)
	if got := reg.CounterValue("floc_capture_malformed_lines_total"); got != 4 {
		t.Fatalf("total malformed counter = %d, want 4", got)
	}
	if got := reg.CounterValue(`floc_capture_malformed_lines_total{reason="framing"}`); got != 3 {
		t.Fatalf("framing malformed counter = %d, want 3", got)
	}
	if got := reg.CounterValue(`floc_capture_malformed_lines_total{reason="version"}`); got != 1 {
		t.Fatalf("version malformed counter = %d, want 1", got)
	}
}

// TestReplayRefusesNonCaptures: a file that is not a pcap capture — an
// NDJSON capture from before captures were pcap — fails -replay and
// -sendto at once, naming the file and the remedy, and is not read as
// records: nothing is replayed and nothing counted malformed.
func TestReplayRefusesNonCaptures(t *testing.T) {
	var lines strings.Builder
	for i := 0; i < 1000; i++ {
		lines.WriteString(`{"t":0.002,"wire":"0100050300000001000027100258000000650000000b00000001"}` + "\n")
	}
	reg := telemetry.NewRegistry()
	e := newTestEngine(t, reg, 1)
	defer e.Close()
	n, malformed, _, err := replayCapture(context.Background(), strings.NewReader(lines.String()), e, reg)
	if !errors.Is(err, wire.ErrNotCapture) || n != 0 || malformed != 0 {
		t.Fatalf("NDJSON replayed %d packets, %d malformed, err %v; want 0, 0, ErrNotCapture", n, malformed, err)
	}

	path := filepath.Join(t.TempDir(), "capture.ndjson")
	if err := os.WriteFile(path, []byte(lines.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	sink, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	replay, send := testOptions(), testOptions()
	replay.replay, replay.shards = path, 1
	send.replay, send.sendto, send.pace = path, sink.LocalAddr().String(), 0
	for _, c := range []struct {
		name string
		o    options
	}{{"-replay", replay}, {"-sendto", send}} {
		err := run(c.o)
		if err == nil || !errors.Is(err, wire.ErrNotCapture) || !strings.Contains(err.Error(), path) ||
			!strings.Contains(err.Error(), "not a pcap capture") || !strings.Contains(err.Error(), "flocd -gen") {
			t.Errorf("%s of an NDJSON file: err = %v, want it named as not a pcap capture, to regenerate with flocd -gen", c.name, err)
		}
	}
}

func TestGenerateCaptureDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := generateCapture(&a, 500, 3); err != nil {
		t.Fatal(err)
	}
	if err := generateCapture(&b, 500, 3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same seed produced different captures")
	}
	var c bytes.Buffer
	if err := generateCapture(&c, 500, 4); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("different seeds produced identical captures")
	}
}

// testOptions mirrors the daemon's flag defaults for in-process runs.
func testOptions() options {
	return options{seed: 1, linkRate: 8e6, capacity: 512}
}

// TestUnreadReplaySnapshotUnchanged: a replay that nothing meters (no
// -metrics, -print-metrics or -ledger) admits on routers with no registry
// attached, and prints the same -snapshot, byte for byte, as a replay of
// the same capture that prints its metrics, where the router families
// still appear.
func TestUnreadReplaySnapshotUnchanged(t *testing.T) {
	dir := t.TempDir()
	capPath := filepath.Join(dir, "capture.pcap")
	var capture bytes.Buffer
	if err := generateCapture(&capture, 50000, 7); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(capPath, capture.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	replay := func(printMet bool) string {
		out, err := os.CreateTemp(dir, "stdout")
		if err != nil {
			t.Fatal(err)
		}
		defer out.Close()
		stdout := os.Stdout
		os.Stdout = out
		o := testOptions()
		o.replay, o.shards, o.snapshot, o.printMet = capPath, 2, true, printMet
		err = run(o)
		os.Stdout = stdout
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		text, err := os.ReadFile(out.Name())
		if err != nil {
			t.Fatal(err)
		}
		return string(text)
	}
	bare, metered := replay(false), replay(true)
	if !strings.Contains(bare, "dataplane: accepted=50000 ") || strings.Contains(bare, "floc_") {
		t.Fatalf("unmetered replay printed no snapshot, or metrics:\n%s", bare)
	}
	metrics, ok := strings.CutPrefix(metered, bare)
	if !ok {
		t.Fatalf("the snapshot depends on whether metrics are read:\n%s\n%s", bare, metered)
	}
	for _, series := range []string{"floc_router_arrived_packets_total ", `floc_router_live_flows{shard="1"} `} {
		if !strings.Contains(metrics, "\n"+series) {
			t.Fatalf("-print-metrics lacks %s:\n%.300s", series, metrics)
		}
	}
}

// TestTraceFlagIsGone: the daemon attaches no event ring, so the knob
// that sized it is rejected rather than accepted and ignored.
func TestTraceFlagIsGone(t *testing.T) {
	if _, err := parseFlags([]string{"-replay", "x.pcap", "-shards", "2"}); err != nil {
		t.Fatalf("benchmark-style flags rejected: %v", err)
	}
	if _, err := parseFlags([]string{"-replay", "x.pcap", "-trace", "1"}); err == nil {
		t.Fatal("-trace 1 parsed; the flag should no longer exist")
	}
}

func TestRunRejectsAmbiguousModes(t *testing.T) {
	if err := run(testOptions()); err == nil {
		t.Fatal("no mode selected should be an error")
	}
	o := testOptions()
	o.listen, o.replay = ":0", "x.pcap"
	if err := run(o); err == nil {
		t.Fatal("both modes selected should be an error")
	}
}

// TestProbe covers the scripts' curl stand-in: a 2xx body is printed and
// the probe succeeds; a non-2xx status or a refused connection fails,
// which main turns into a nonzero exit.
func TestProbe(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			http.Error(w, "no such page", http.StatusNotFound)
			return
		}
		io.WriteString(w, "ok\n")
	}))
	defer srv.Close()

	var out bytes.Buffer
	if err := probe(&out, srv.URL+"/healthz"); err != nil || out.String() != "ok\n" {
		t.Fatalf("probe 200: body %q, err %v; want \"ok\\n\", nil", out.String(), err)
	}
	if err := probe(io.Discard, srv.URL+"/missing"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("probe 404: err %v, want a 404 status error", err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	refused := "http://" + ln.Addr().String() + "/healthz"
	ln.Close()
	o, err := parseFlags([]string{"-probe", refused})
	if err != nil {
		t.Fatal(err)
	}
	if err := run(o); err == nil {
		t.Fatal("probe of a closed port succeeded")
	}
}

// TestLedgerEndToEnd drives the whole forensic loop in-process: generate
// a capture, replay it with -ledger sealing on a sharded engine, then
// verify the sealed evidence and replay it against the claimed snapshot.
func TestLedgerEndToEnd(t *testing.T) {
	dir := t.TempDir()
	capPath := filepath.Join(dir, "capture.pcap")
	ledgerDir := filepath.Join(dir, "ledger")

	f, err := os.Create(capPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := generateCapture(f, 5000, 7); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	o := testOptions()
	o.replay = capPath
	o.shards = 2
	o.ledger = ledgerDir
	if err := run(o); err != nil {
		t.Fatalf("run: %v", err)
	}

	replayer := ledger.NewReplayer()
	rep, err := ledger.Verify(ledgerDir, replayer.Fold)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if rep.Segments == 0 || rep.Events == 0 {
		t.Fatalf("ledger sealed nothing: %+v", rep)
	}
	snap, err := ledger.ReadSnapshot(filepath.Join(ledgerDir, ledger.SnapshotName))
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if snap.Arrived != 5000 {
		t.Fatalf("claimed snapshot arrived = %d, want 5000", snap.Arrived)
	}
	if diffs := replayer.Result().Diff(snap); len(diffs) != 0 {
		t.Fatalf("sealed events do not reproduce the claimed snapshot:\n%s",
			strings.Join(diffs, "\n"))
	}

	// A second run into the same directory must refuse to reseal.
	if err := run(o); err == nil {
		t.Fatal("resealing into an existing ledger directory must fail")
	}
}

func TestHealthzReportsDataplane(t *testing.T) {
	reg := telemetry.NewRegistry()
	e := newTestEngine(t, reg, 2)
	defer e.Close()
	h := &health{engine: e, start: time.Now()}
	srv := httptest.NewServer(serveMux(reg, h, true))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Status string `json:"status"`
		Shards int    `json:"shards"`
		// No ring is attached, so there is no ring loss to report.
		TraceDropped *int64 `json:"trace_dropped_events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Status != "ok" || doc.Shards != 2 || doc.TraceDropped != nil {
		t.Fatalf("healthz = %+v", doc)
	}

	// pprof rides the same listener when enabled.
	pp, err := srv.Client().Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	pp.Body.Close()
	if pp.StatusCode != 200 {
		t.Fatalf("pprof endpoint status %d", pp.StatusCode)
	}
}

// TestReplaySurvivesOversizedLine: a 2 MiB record between two good ones
// is skipped by its declared length, and costs the lenient replay that
// record, not the run.
func TestReplaySurvivesOversizedLine(t *testing.T) {
	var capture bytes.Buffer
	if err := generateCapture(&capture, 2, 7); err != nil {
		t.Fatal(err)
	}
	header, records := splitCapture(capture.Bytes())
	input := bytes.Join([][]byte{header, records[0], pcapRecord(2<<20, 2<<20, make([]byte, 2<<20)), records[1]}, nil)

	reg := telemetry.NewRegistry()
	e := newTestEngine(t, reg, 1)
	defer e.Close()
	n, malformed, _, err := replayCapture(context.Background(), bytes.NewReader(input), e, reg)
	if err != nil {
		t.Fatalf("oversized record voided the replay: %v", err)
	}
	if n != 2 || malformed != 1 {
		t.Fatalf("replayed %d packets with %d malformed records, want 2 and 1", n, malformed)
	}
	if got := reg.CounterValue(`floc_capture_malformed_lines_total{reason="framing"}`); got != 1 {
		t.Fatalf("framing malformed counter = %d, want 1", got)
	}
}

// collector is an in-process dataplane.PacketSink.
type collector struct{ n atomic.Int64 }

func (c *collector) Emit(*netsim.Packet, float64) { c.n.Add(1) }

// liveDaemon runs serveUDP on a loopback socket over an engine with a
// never-congested link and returns a sender, the registry, the egress
// collector and a stop function that closes the socket and waits for
// serveUDP to return.
func liveDaemon(t *testing.T) (send func([]byte), reg *telemetry.Registry, e *dataplane.Engine, sink *collector, stop func()) {
	t.Helper()
	reg = telemetry.NewRegistry()
	sink = &collector{}
	send, e, stop = liveDaemonTo(t, reg, sink)
	return send, reg, e, sink, stop
}

// liveDaemonTo is liveDaemon with the caller's registry and egress sink.
func liveDaemonTo(t *testing.T, reg *telemetry.Registry, egress dataplane.PacketSink) (send func([]byte), e *dataplane.Engine, stop func()) {
	t.Helper()
	// 2 ns of virtual link time per packet and shard: ingest cannot outrun
	// the transmitter, so a shutdown microseconds after the last arrival
	// still finds every packet's transmission due.
	rc := core.DefaultConfig(8e12, 512)
	rc.Seed = 7
	e, err := dataplane.New(dataplane.Config{Router: rc, Shards: 2, Telemetry: reg, Egress: egress})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	out, err := net.Dial("udp", conn.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { out.Close() })
	done := make(chan error, 1)
	go func() { done <- serveUDP(conn, e, reg, time.Now()) }()
	send = func(b []byte) {
		t.Helper()
		if _, err := out.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	stop = func() {
		t.Helper()
		conn.Close()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	return send, e, stop
}

// waitFor polls cond until it holds or two seconds pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for i := 0; i < 2000; i++ {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func testFrame(t *testing.T, src uint32) []byte {
	t.Helper()
	h := wire.Header{Version: wire.Version1, Kind: netsim.KindUDP, Src: src, Dst: 9, Length: 1000, PathLen: 2}
	h.Path[0], h.Path[1] = 100, 1
	b, err := wire.MarshalAppend(nil, &h)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestServeUDPCountsMalformedDatagrams: a datagram Decode rejects is
// counted under its error kind, one that carries bytes after its header —
// a few, or more than any header has, which the receive buffer cuts short
// — is a framing error, and the good packets around them are still
// processed.
func TestServeUDPCountsMalformedDatagrams(t *testing.T) {
	send, reg, e, _, stop := liveDaemon(t)
	const total = "floc_ingest_malformed_datagrams_total"
	waitFor(t, "the zero total to be registered", func() bool {
		for _, name := range reg.Names() {
			if name == total {
				return true
			}
		}
		return false
	})

	good := testFrame(t, 1)
	badVersion := append([]byte(nil), good...)
	badVersion[0] = 0xff
	badKind := append([]byte(nil), good...)
	badKind[2] = 0xee
	trailing := append(append([]byte(nil), good...), 0)
	oversized := append(append([]byte(nil), good...), make([]byte, 4*wire.MaxEncodedLen)...)
	send(good)
	send(good[:5])
	send(badVersion)
	send(trailing)
	send(badKind)
	send(oversized)
	send(testFrame(t, 2))
	waitFor(t, "seven datagrams to be read", func() bool {
		return e.Stats().Accepted == 2 && reg.CounterValue(total) == 5
	})
	stop()

	for reason, want := range map[string]int64{"short": 1, "version": 1, "kind": 1, "framing": 2} {
		if got := reg.CounterValue(total + `{reason="` + reason + `"}`); got != want {
			t.Errorf("%s{reason=%q} = %d, want %d", total, reason, got, want)
		}
	}
	if st := e.Stats(); st.Processed != 2 {
		t.Fatalf("processed %d packets, want the 2 good ones", st.Processed)
	}
}

// TestLiveShutdownFlushesQueue: on an uncongested link every packet is
// admitted, and closing the socket must forward the ones still queued —
// the transmitter is otherwise served only by later arrivals.
func TestLiveShutdownFlushesQueue(t *testing.T) {
	send, _, e, sink, stop := liveDaemon(t)
	// Not a multiple of the burst run on either shard: the last packets
	// read are a part-filled burst, which serveUDP must hand to the rings
	// before it blocks again — Accepted never reaches the total otherwise —
	// and which the shutdown Advance must cover like the rest.
	const packets = 200
	for i := 0; i < packets; i++ {
		send(testFrame(t, uint32(i%16)))
	}
	waitFor(t, "the datagrams to be read", func() bool { return e.Stats().Accepted == packets })
	stop()
	e.Drain()
	admitted := e.Snapshot().Admitted
	if admitted != packets {
		t.Fatalf("admitted %d of %d packets on an uncongested link", admitted, packets)
	}
	if got := sink.n.Load(); got != admitted {
		t.Fatalf("egress saw %d packets, router admitted %d: the rest were stranded in the queue", got, admitted)
	}
}

// TestForwarderCountsEgressErrors: encode and send failures are counted
// by stage, once per packet, when the batch they belong to is flushed; a
// packet that goes out counts as neither.
func TestForwarderCountsEgressErrors(t *testing.T) {
	next, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer next.Close()
	reg := telemetry.NewRegistry()
	fwd, err := newUDPForwarder(next.LocalAddr().String(), reg)
	if err != nil {
		t.Fatal(err)
	}
	counts := func() [2]int64 {
		return [2]int64{reg.CounterValue(`floc_egress_errors_total{stage="encode"}`),
			reg.CounterValue(`floc_egress_errors_total{stage="send"}`)}
	}
	pkt := &netsim.Packet{Kind: netsim.KindUDP, Size: 1000}
	fwd.Emit(pkt, 0)
	fwd.Emit(pkt, 0)
	fwd.Flush()
	if got := counts(); got != [2]int64{0, 0} {
		t.Fatalf("clean emits counted errors %v", got)
	}
	buf := make([]byte, 2*wire.MaxEncodedLen)
	for i := 0; i < 2; i++ {
		_ = next.SetReadDeadline(time.Now().Add(2 * time.Second))
		n, _, err := next.ReadFrom(buf)
		if err != nil {
			t.Fatalf("forwarded datagram %d: %v", i, err)
		}
		if _, err := wire.Decode(buf[:n], new(wire.Header)); err != nil {
			t.Fatalf("forwarded datagram %d (%d bytes) does not decode: %v", i, n, err)
		}
	}

	fwd.Emit(&netsim.Packet{Kind: netsim.KindUDP}, 0) // zero size does not encode
	fwd.Close()
	for i := 0; i < 3; i++ {
		fwd.Emit(pkt, 0) // closed socket does not send
	}
	if got := counts(); got != [2]int64{1, 0} {
		t.Fatalf("egress error counts (encode, send) = %v before the flush, want [1 0]", got)
	}
	fwd.Flush()
	if got := counts(); got != [2]int64{1, 3} {
		t.Fatalf("egress error counts (encode, send) = %v, want [1 3]", got)
	}
	fwd.Flush() // nothing pending: nothing more to count
	if got := counts(); got != [2]int64{1, 3} {
		t.Fatalf("an empty flush moved the error counts to %v", got)
	}
}

// TestLiveBatchMetricsExported: the batching instruments exist from the
// start of a clean run — explicit zeros, not absences — and record one
// observation per syscall once traffic flows through both sockets.
func TestLiveBatchMetricsExported(t *testing.T) {
	next, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer next.Close()
	reg := telemetry.NewRegistry()
	fwd, err := newUDPForwarder(next.LocalAddr().String(), reg)
	if err != nil {
		t.Fatal(err)
	}
	defer fwd.Close()
	send, e, stop := liveDaemonTo(t, reg, fwd)
	exposition := func() string {
		var b strings.Builder
		if err := reg.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	waitFor(t, "the zero series to be registered", func() bool {
		text := exposition()
		for _, want := range []string{"floc_ingest_batch_datagrams_count 0\n",
			"floc_egress_batch_datagrams_count 0\n", "floc_egress_gso_fallbacks_total 0\n",
			`floc_dataplane_inline_runs_total{shard="1"} 0` + "\n", `floc_dataplane_worker_wakeups_total{shard="1"} 0` + "\n",
			`floc_dataplane_ring_full_yields_total{shard="1"} 0` + "\n"} {
			if !strings.Contains(text, want) {
				return false
			}
		}
		return true
	})

	const packets = 200
	for i := 0; i < packets; i++ {
		send(testFrame(t, uint32(i%16)))
	}
	waitFor(t, "the datagrams to be read", func() bool { return e.Stats().Accepted == packets })
	stop()
	hist := func(name string) *telemetry.Histogram { return reg.Histogram(name, "", "", nil) }
	in, out := hist("floc_ingest_batch_datagrams"), hist("floc_egress_batch_datagrams")
	if in.Sum() != packets || in.Count() == 0 || in.Count() > packets {
		t.Fatalf("ingest batches: %d observations summing to %v datagrams, want a sum of %d", in.Count(), in.Sum(), packets)
	}
	if admitted := e.Snapshot().Admitted; out.Sum() != float64(admitted) || out.Count() == 0 {
		t.Fatalf("egress batches: %d observations summing to %v datagrams, router admitted %d", out.Count(), out.Sum(), admitted)
	}
	if got := reg.CounterValue(`floc_egress_errors_total{stage="send"}`); got != 0 {
		t.Fatalf("%d send errors towards a live next hop", got)
	}
}

// TestParseUDPDrops reads the drops column of the row whose local address
// matches, in both tables' address widths, and reports a missing row.
func TestParseUDPDrops(t *testing.T) {
	const udp4 = `   sl  local_address rem_address   st tx_queue rx_queue tr tm->when retrnsmt   uid  timeout inode ref pointer drops
 1411: 00000000:14E9 00000000:0000 07 00000000:00000000 00:00000000 00000000   102        0 20961 2 0000000000000000 0
 2965: 0100007F:A2C4 00000000:0000 07 00000000:00021C00 00:00000000 00000000     0        0 99201 2 0000000000000000 4711
 2966: 0100007F:A2C5 0100007F:A2C4 01 00000000:00000000 00:00000000 00000000     0        0 99202 2 0000000000000000 3
`
	const udp6 = `  sl  local_address                         remote_address                        st tx_queue rx_queue tr tm->when retrnsmt   uid  timeout inode ref pointer drops
 1411: 00000000000000000000000000000000:2328 00000000000000000000000000000000:0000 07 00000000:00000000 00:00000000 00000000     0        0 31337 2 0000000000000000 12
`
	addr := func(s string) string { return procNetAddr(netip.MustParseAddrPort(s)) }
	for _, tc := range []struct {
		table, local string
		drops        int64
		ok           bool
	}{
		{udp4, addr("127.0.0.1:41668"), 4711, true},
		{udp4, addr("127.0.0.1:41669"), 3, true},
		{udp4, addr("0.0.0.0:5353"), 0, true},
		{udp4, addr("127.0.0.1:9"), 0, false},
		{udp6, addr("[::]:9000"), 12, true},
		{udp6, addr("[::1]:9000"), 0, false},
		{"", addr("127.0.0.1:41668"), 0, false},
	} {
		drops, ok := parseUDPDrops([]byte(tc.table), tc.local)
		if drops != tc.drops || ok != tc.ok {
			t.Errorf("parseUDPDrops(…, %q) = %d, %v; want %d, %v", tc.local, drops, ok, tc.drops, tc.ok)
		}
	}
	if got := addr("[2001:db8::1]:9000"); got != "B80D0120000000000000000001000000:2328" {
		t.Errorf("v6 local_address rendered as %q", got)
	}
}

// TestKernelDropsFollowTheTable: the counter rises to the kernel's figure
// at each refresh and keeps its last value once the socket's row is gone.
func TestKernelDropsFollowTheTable(t *testing.T) {
	table := filepath.Join(t.TempDir(), "udp")
	row := func(drops string) {
		t.Helper()
		line := " 7: 0100007F:2328 00000000:0000 07 00000000:00000000 00:00000000 00000000 0 0 1 2 0000000000000000 " + drops + "\n"
		if err := os.WriteFile(table, []byte("header\n"+line), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	reg := telemetry.NewRegistry()
	k := &kernelDrops{table: table, local: "0100007F:2328",
		ctr: reg.Counter("floc_ingest_kernel_drops_total", "", "")}
	for _, step := range []struct {
		drops string
		want  int64
	}{{"0", 0}, {"5", 5}, {"5", 5}, {"9", 9}} {
		row(step.drops)
		k.refresh()
		if got := k.ctr.Value(); got != step.want {
			t.Fatalf("after the table said %s: counter = %d, want %d", step.drops, got, step.want)
		}
	}
	if err := os.Remove(table); err != nil {
		t.Fatal(err)
	}
	k.refresh()
	(*kernelDrops)(nil).refresh() // no table on this platform: nothing to do
	if got := k.ctr.Value(); got != 9 {
		t.Fatalf("counter = %d after the row vanished, want the last figure 9", got)
	}
}

// failingTransport refuses every frame.
type failingTransport struct{}

func (failingTransport) Send(string, []byte) error { return io.ErrClosedPipe }

// testControlFrame encodes a one-record feedback frame from origin.
func testControlFrame(t *testing.T, origin uint32, seq uint64) []byte {
	t.Helper()
	f := wire.ControlFrame{
		Version: wire.ControlVersion1, Kind: wire.ControlFeedback, Hops: 1,
		Origin: origin, Seq: seq, TTLMillis: 1000, NumRecords: 1,
	}
	if err := f.Records[0].SetPath(pathid.New(100, 1)); err != nil {
		t.Fatal(err)
	}
	f.Records[0].LimitBits = 1e6
	b, err := wire.MarshalControlAppend(nil, &f)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestServeControlCountsFrameErrors: a control frame DecodeControl
// rejects is counted under its error kind (the total is registered before
// the first frame, so a clean daemon exports a zero), and the good frames
// around it are still applied.
func TestServeControlCountsFrameErrors(t *testing.T) {
	reg := telemetry.NewRegistry()
	e := newTestEngine(t, reg, 1)
	defer e.Close()
	node, err := cluster.New(cluster.Config{RouterID: 2, Installer: e, PacketSize: 1000, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	out, err := net.Dial("udp", conn.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		serveControl(conn, node, reg, time.Now())
	}()
	const total = "floc_cluster_control_frame_errors_total"
	waitFor(t, "the zero total to be registered", func() bool {
		for _, name := range reg.Names() {
			if name == total {
				return reg.CounterValue(total) == 0
			}
		}
		return false
	})

	good := testControlFrame(t, 1, 1)
	badVersion := append([]byte(nil), good...)
	badVersion[0] = wire.Version1 // a data header's version on the control port
	// A datagram longer than any frame is cut to MaxControlEncodedLen+1
	// bytes by the read, so it too reads as a frame with bytes after it.
	trailing := append(testControlFrame(t, 1, 3), 0)
	oversize := append(testControlFrame(t, 1, 4), make([]byte, wire.MaxControlEncodedLen)...)
	for _, frame := range [][]byte{good, good[:7], badVersion, testControlFrame(t, 1, 2), trailing, oversize} {
		if _, err := out.Write(frame); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "six frames to be handled", func() bool {
		return reg.CounterValue(total) == 4 &&
			reg.CounterValue("floc_cluster_feedback_applied_total") == 2
	})
	conn.Close()
	<-done
	for reason, want := range map[string]int64{"short": 1, "version": 1, "framing": 2} {
		if got := reg.CounterValue(total + `{reason="` + reason + `"}`); got != want {
			t.Errorf("%s{reason=%q} = %d, want %d", total, reason, got, want)
		}
	}
}

// TestControlSendErrorsReachMetrics: a frame the transport cannot send is
// counted on /metrics (from a registered zero) as well as in /healthz.
func TestControlSendErrorsReachMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	e := newTestEngine(t, reg, 1)
	defer e.Close()
	node, err := cluster.New(cluster.Config{
		RouterID: 2, Peers: []string{"upstream:1"}, Transport: failingTransport{},
		Installer: e, PacketSize: 1000, Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	const name = "floc_cluster_send_errors_total"
	metrics := func() string {
		rec := httptest.NewRecorder()
		serveMux(reg, nil, false).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		return rec.Body.String()
	}
	if body := metrics(); !strings.Contains(body, name+" 0\n") {
		t.Fatalf("/metrics lacks a zero %s before any send:\n%s", name, body)
	}
	// A fresh frame with hop budget left is relayed to the one peer, which
	// the transport refuses.
	if _, err := node.HandleFrame(testControlFrame(t, 1, 1), 1); err != nil {
		t.Fatal(err)
	}
	if body := metrics(); !strings.Contains(body, name+" 1\n") {
		t.Fatalf("/metrics does not count the failed relay:\n%s", body)
	}
	if got := node.Health(1).SendErrors; got != 1 {
		t.Fatalf("/healthz send_errors = %d, want 1", got)
	}
}

// TestTransmitCaptureCountsUnencodableHeaders: a header MarshalAppend
// rejects is skipped, counted, and the packets around it still go out.
func TestTransmitCaptureCountsUnencodableHeaders(t *testing.T) {
	lengths := []uint16{1000, 0, 400} // zero length does not encode
	next := func(h *wire.Header) (float64, error) {
		if len(lengths) == 0 {
			return 0, io.EOF
		}
		*h = wire.Header{Version: wire.Version1, Kind: netsim.KindUDP, Src: 1, Dst: 9, Length: lengths[0]}
		lengths = lengths[1:]
		return 0, nil
	}
	var out bytes.Buffer
	sent, unencodable, err := transmitCapture(next, &out, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sent != 2 || unencodable != 1 {
		t.Fatalf("sent %d, unencodable %d; want 2 and 1", sent, unencodable)
	}
	var h wire.Header
	for i := 0; i < sent; i++ {
		n, err := wire.Decode(out.Bytes(), &h)
		if err != nil {
			t.Fatalf("datagram %d does not decode: %v", i, err)
		}
		out.Next(n)
	}
	if out.Len() != 0 {
		t.Fatalf("%d stray bytes written for the skipped header", out.Len())
	}
}

// TestBurstFlushedBeforeBarriers: a source's last packets sit in its
// burst — fewer than one run per shard here, so all of them — until the
// source quiesces, and each source must before the Advance that ends it:
// replayCapture before it returns to the caller that advances, serveUDP
// after every short vector and so before its own shutdown Advance.
// (Mutation-checked: without either quiesce the packets never reach a
// shard and the test fails.) On a lightly loaded socket the reader finds
// the workers parked and admits what it read itself.
func TestBurstFlushedBeforeBarriers(t *testing.T) {
	const packets = 40
	t.Run("replay", func(t *testing.T) {
		var capture bytes.Buffer
		if err := generateCapture(&capture, packets, 7); err != nil {
			t.Fatal(err)
		}
		reg := telemetry.NewRegistry()
		e := newTestEngine(t, reg, 2)
		defer e.Close()
		_, _, end, err := replayCapture(context.Background(), &capture, e, reg)
		if err != nil {
			t.Fatal(err)
		}
		if got := e.Stats().Accepted; got != packets {
			t.Fatalf("replayCapture returned with %d of %d packets handed to the shards", got, packets)
		}
		e.Advance(end)
		if got := e.Snapshot().Arrived; got != packets {
			t.Fatalf("router saw %d of %d replayed packets behind the Advance", got, packets)
		}
	})
	t.Run("live", func(t *testing.T) {
		send, reg, e, sink, stop := liveDaemon(t)
		for i := 0; i < packets; i++ {
			send(testFrame(t, uint32(i)))
			// One datagram at a time: every vector comes back short.
			waitFor(t, "the datagram to be processed", func() bool { return e.Stats().Processed == int64(i+1) })
		}
		if got := inlineRuns(reg); got == 0 {
			t.Fatalf("no inline run over %d one-datagram vectors: the reader woke a worker for each", packets)
		}
		stop()
		if got := sink.n.Load(); got != packets {
			t.Fatalf("egress saw %d of %d packets after the shutdown Advance", got, packets)
		}
	})
}

// handleSink records the path handle of every packet the engine emits.
type handleSink struct {
	mu      sync.Mutex
	handles []uint32
}

func (s *handleSink) Emit(pkt *netsim.Packet, _ float64) {
	s.mu.Lock()
	s.handles = append(s.handles, pkt.PathHandle)
	s.mu.Unlock()
}

// TestIngestPastInternerBound: once the producer's interner is full, a
// path it will not remember is admitted without a handle, resolved by key
// in the router, instead of being interned with its shard router — a
// shard barrier — on every one of its packets. Its packet must leave
// ingest, and reach egress, with PathHandle 0, and a limit installed on
// the path must still hold its packets.
func TestIngestPastInternerBound(t *testing.T) {
	rc := core.DefaultConfig(8e12, 512)
	rc.Seed = 7
	sink := &handleSink{}
	e, err := dataplane.New(dataplane.Config{Router: rc, Shards: 2, BlockOnFull: true, Egress: sink})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	p := newProducer(e)
	h := wire.Header{Version: wire.Version1, Kind: netsim.KindUDP, Src: 1, Dst: 9, Length: 1000, PathLen: 3}
	h.Path[2] = 1
	for i := 0; ; i++ {
		h.Path[0], h.Path[1] = pathid.ASN(i>>8), pathid.ASN(i&0xff)
		before := p.in.Len()
		if p.in.ResolveFull(&h); p.in.Len() == before {
			break // the first path the full interner did not remember
		}
	}
	h.Path[0], h.Path[1] = 999_999, 42
	p.ingest(&h, 1, 1e-3)
	if p.pkt.PathHandle != 0 {
		t.Fatalf("a path past the interner bound was stamped with handle %#x: ingest interned it with the router", p.pkt.PathHandle)
	}
	p.burst.Quiesce()
	e.Advance(1)
	if s := e.Stats(); s.Processed != 1 {
		t.Fatalf("engine processed %d packets, want the 1 ingested", s.Processed)
	}
	sink.mu.Lock()
	if len(sink.handles) != 1 || sink.handles[0] != 0 {
		t.Fatalf("egress saw handles %v, want one packet with handle 0", sink.handles)
	}
	sink.mu.Unlock()

	// 1 Mb/s against 8 Mb/s offered: the bank must drop most of them.
	if !e.InstallLimit(h.PathID(), 1_000_000, 0, 42, 1) {
		t.Fatal("InstallLimit failed")
	}
	for i := 0; i < 200; i++ {
		p.ingest(&h, uint64(2+i), 1+1e-3*float64(i))
	}
	p.burst.Quiesce()
	e.Advance(2)
	if s := e.Stats(); s.LimitDrops == 0 {
		t.Fatalf("none of 200 handle-less packets at 8x the installed limit was dropped by it (processed %d)", s.Processed)
	}
}

// TestReplayIsDeterministic: the transmitter is served to each packet's
// own arrival time, so what a replay admits depends on the capture alone,
// not on how the workers' batches happened to be cut this time.
func TestReplayIsDeterministic(t *testing.T) {
	var capture bytes.Buffer
	if err := generateCapture(&capture, 50000, 7); err != nil {
		t.Fatal(err)
	}
	replay := func() core.Snapshot {
		reg := telemetry.NewRegistry()
		e := newTestEngine(t, reg, 2)
		defer e.Close()
		_, _, end, err := replayCapture(context.Background(), bytes.NewReader(capture.Bytes()), e, reg)
		if err != nil {
			t.Fatal(err)
		}
		e.Advance(end)
		return e.Snapshot()
	}
	// The same capture through the same producer, cut at seeded random
	// points by a Flush, by a Quiesce that goes whichever way the workers
	// allow, or by a Quiesce behind a barrier, which finds them parked: who
	// admits a run, the worker or the producer, is no more visible than
	// where the batches were cut.
	cut := func() core.Snapshot {
		reg := telemetry.NewRegistry()
		e := newTestEngine(t, reg, 2)
		defer e.Close()
		cr := wire.NewCaptureReader(bytes.NewReader(capture.Bytes()))
		p, at := newProducer(e), rng.New(5)
		var h wire.Header
		n, end := 0, 0.0
		for {
			ts, err := cr.Next(&h)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			n++
			p.ingest(&h, uint64(n), ts)
			end = ts
			switch at.Intn(256) {
			case 0:
				p.burst.Flush()
			case 1:
				p.burst.Quiesce()
			case 2:
				e.Drain()
				p.burst.Quiesce()
			}
		}
		p.burst.Quiesce()
		if got := inlineRuns(reg); got == 0 {
			t.Fatal("no run of the cut replay was admitted inline: it compares nothing")
		}
		e.Advance(end)
		return e.Snapshot()
	}
	first, again, inline := replay(), replay(), cut()
	if dropped := first.Arrived - first.Admitted; dropped == 0 {
		t.Fatal("capture did not congest the link; the test has no teeth")
	}
	for _, other := range []core.Snapshot{again, inline} {
		if first.String() != other.String() {
			t.Fatalf("two replays of one capture differ:\n%s\n%s", first.String(), other.String())
		}
		if !reflect.DeepEqual(first.Paths, other.Paths) {
			t.Fatalf("two replays of one capture differ per path:\n%+v\n%+v", first.Paths, other.Paths)
		}
	}
}

// TestReplayMetricsAreDeterministic: two replays of one capture on two
// shards print the same -print-metrics text, byte for byte, once the
// families that time the host rather than the replay are set aside. A
// router gauge that both shards wrote would fail that — it would read
// whichever shard ran its control loop last — so each shard's gauges are
// series of their own, and the shards' live flows add up to the flows the
// final snapshot holds.
func TestReplayMetricsAreDeterministic(t *testing.T) {
	var capture bytes.Buffer
	if err := generateCapture(&capture, 50000, 7); err != nil {
		t.Fatal(err)
	}
	replay := func() (core.Snapshot, *telemetry.Registry, string) {
		reg := telemetry.NewRegistry()
		e := newTestEngine(t, reg, 2)
		_, _, end, err := replayCapture(context.Background(), bytes.NewReader(capture.Bytes()), e, reg)
		if err != nil {
			t.Fatal(err)
		}
		e.Advance(end)
		var out bytes.Buffer
		snap := finish(&out, e, reg, false, true)
		return snap, reg, out.String()
	}
	hostTimed := []string{
		"floc_dataplane_admission_batch_seconds", "floc_dataplane_ring_occupancy",
		"floc_dataplane_ring_full_yields_total", "floc_dataplane_inline_runs_total",
		"floc_dataplane_worker_wakeups_total", "floc_dataplane_packet_slots", "floc_build_info",
	}
	replayed := func(text string) string {
		var kept strings.Builder
		for _, line := range strings.SplitAfter(text, "\n") {
			name := line
			if fields := strings.Fields(line); len(fields) > 2 && fields[0] == "#" {
				name = fields[2]
			}
			timed := false
			for _, family := range hostTimed {
				timed = timed || strings.HasPrefix(name, family)
			}
			if !timed {
				kept.WriteString(line)
			}
		}
		return kept.String()
	}
	snap, reg, first := replay()
	_, _, again := replay()
	if a, b := replayed(first), replayed(again); a != b {
		t.Fatalf("two replays of one capture print different metrics:\n%s\n%s", a, b)
	}
	flows := 0
	for _, p := range snap.Paths {
		flows += p.Flows
	}
	live := reg.GaugeValue(`floc_router_live_flows{shard="0"}`) + reg.GaugeValue(`floc_router_live_flows{shard="1"}`)
	if flows == 0 || live != float64(flows) {
		t.Fatalf("shards report %v live flows, the snapshot holds %d", live, flows)
	}
}

// inlineRuns sums floc_dataplane_inline_runs_total over a 2-shard engine.
func inlineRuns(reg *telemetry.Registry) int64 {
	return reg.CounterValue(`floc_dataplane_inline_runs_total{shard="0"}`) +
		reg.CounterValue(`floc_dataplane_inline_runs_total{shard="1"}`)
}
