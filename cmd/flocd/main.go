// Command flocd runs the FLoc router as a standalone daemon on the
// sharded multi-core dataplane. Packets arrive as wire-encoded shim
// headers (package wire), either over a UDP socket or from a pcap
// capture file, are hashed by path identifier onto per-core router
// shards, and the whole engine's telemetry is served as Prometheus text
// on /metrics.
//
// Live mode — one datagram per wire header, arrival-stamped on receipt.
// Both sockets move datagrams in vectors (package udpbatch): up to 64 per
// recvmmsg on -listen, and on -forward one sendmmsg per burst, flushed
// whenever a shard runs out of work. A read that drains the socket admits
// and forwards its batch on the reader goroutine; full reads hand off to
// the shard workers:
//
//	flocd -listen :9000 -metrics :9100 -link 100e6 -capacity 512
//
// Offline mode — replay a capture hermetically (arrival times come from
// the capture, so results are reproducible and CI-friendly):
//
//	flocd -gen 10000 -out capture.pcap
//	flocd -replay capture.pcap -shards 4 -snapshot -print-metrics
//
// -gen writes a synthetic capture (a deterministic mix of legitimate CBR
// paths and one flooding path) so the pipeline can be exercised without
// a packet source.
//
// -probe <url> prints one HTTP body and fails unless the status is 2xx.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"floc/internal/cluster"
	"floc/internal/core"
	"floc/internal/dataplane"
	"floc/internal/ledger"
	"floc/internal/netsim"
	"floc/internal/pathid"
	"floc/internal/rng"
	"floc/internal/telemetry"
	"floc/internal/udpbatch"
	"floc/internal/wire"
)

// options collects the daemon's resolved flags.
type options struct {
	listen   string
	replay   string
	gen      int
	out      string
	seed     uint64
	shards   int
	linkRate float64
	capacity int
	metrics  string
	snapshot bool
	printMet bool
	ledger   string
	pprof    bool

	routerID uint
	control  string
	peers    string
	forward  string
	sendto   string
	pace     float64
	probe    string
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err == flag.ErrHelp {
		os.Exit(0)
	}
	if err != nil {
		os.Exit(2) // the flag set has already said why
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "flocd:", err)
		os.Exit(1)
	}
}

// parseFlags resolves the command line into options.
func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("flocd", flag.ContinueOnError)
	fs.StringVar(&o.listen, "listen", "", "UDP address to receive wire-encoded packets on (live mode)")
	fs.StringVar(&o.replay, "replay", "", "pcap capture file to replay (offline mode)")
	fs.IntVar(&o.gen, "gen", 0, "generate a synthetic capture with this many packets and exit")
	fs.StringVar(&o.out, "out", "", "output file for -gen (default stdout)")
	fs.Uint64Var(&o.seed, "seed", 7, "engine and generator seed")
	fs.IntVar(&o.shards, "shards", 0, "dataplane shards (0 = one per core)")
	fs.Float64Var(&o.linkRate, "link", 8e6, "protected link rate in bits/s")
	fs.IntVar(&o.capacity, "capacity", 512, "aggregate buffer capacity in packets")
	fs.StringVar(&o.metrics, "metrics", "", "HTTP address to serve /metrics and /healthz on (empty = off)")
	fs.BoolVar(&o.snapshot, "snapshot", false, "print the merged router snapshot at exit")
	fs.BoolVar(&o.printMet, "print-metrics", false, "print the metric registry as Prometheus text at exit (the routers meter only under this, -metrics or -ledger)")
	fs.StringVar(&o.ledger, "ledger", "", "directory to seal the forensic event ledger into (must not hold one already)")
	fs.BoolVar(&o.pprof, "pprof", false, "also serve net/http/pprof on the -metrics listener")
	fs.UintVar(&o.routerID, "router-id", 0, "this daemon's cluster router ID (nonzero enables the control plane)")
	fs.StringVar(&o.control, "control", "", "UDP address to receive cluster control frames on")
	fs.StringVar(&o.peers, "peers", "", "comma-separated upstream control addresses to push feedback to")
	fs.StringVar(&o.forward, "forward", "", "UDP data address to forward transmitted packets to (the next hop's -listen)")
	fs.StringVar(&o.sendto, "sendto", "", "transmit the -replay capture as live datagrams to this UDP address instead of replaying locally")
	fs.Float64Var(&o.pace, "pace", 1.0, "-sendto time scale: real seconds per capture second (0 = no pacing)")
	fs.StringVar(&o.probe, "probe", "", "fetch this HTTP URL (a daemon's /metrics or /healthz), print the body and exit; non-2xx fails")
	return o, fs.Parse(args)
}

func run(o options) error {
	if o.probe != "" {
		return probe(os.Stdout, o.probe)
	}
	if o.gen > 0 {
		w := io.Writer(os.Stdout)
		if o.out != "" {
			f, err := os.Create(o.out)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		return generateCapture(w, o.gen, o.seed)
	}
	if o.sendto != "" {
		if o.replay == "" {
			return fmt.Errorf("-sendto requires -replay (the capture to transmit)")
		}
		f, err := os.Open(o.replay)
		if err != nil {
			return err
		}
		defer f.Close()
		return captureError(o.replay, sendCapture(f, o.sendto, o.pace))
	}
	if (o.listen == "") == (o.replay == "") {
		return fmt.Errorf("exactly one of -listen or -replay is required (or -gen)")
	}
	if (o.control != "" || o.peers != "") && o.routerID == 0 {
		return fmt.Errorf("-control and -peers require -router-id")
	}
	if o.routerID != 0 && o.listen == "" {
		return fmt.Errorf("cluster mode (-router-id) requires -listen")
	}
	var peers []string
	if o.peers != "" {
		peers = strings.Split(o.peers, ",")
	}

	reg := telemetry.NewRegistry()
	var sealer *ledger.Sealer
	var sink telemetry.EventSink
	if o.ledger != "" {
		s, err := ledger.NewSealer(o.ledger)
		if err != nil {
			return err
		}
		sealer = s
		sink = s
	}
	var egress dataplane.PacketSink
	if o.forward != "" {
		fwd, err := newUDPForwarder(o.forward, reg)
		if err != nil {
			return err
		}
		defer fwd.Close()
		egress = fwd
	}
	rc := core.DefaultConfig(o.linkRate, o.capacity)
	rc.Seed = o.seed
	// The engine meters into the registry only when something reads it:
	// /metrics, the exit print, or the ledger's sink, which needs it. A
	// run with none of them admits on detached routers.
	var engineReg *telemetry.Registry
	if o.metrics != "" || o.printMet || sink != nil {
		engineReg = reg
	}
	engine, err := dataplane.New(dataplane.Config{
		Router:      rc,
		Shards:      o.shards,
		BlockOnFull: o.replay != "", // a capture has no real clock: pace, don't drop
		Telemetry:   engineReg,
		Sink:        sink,
		Egress:      egress,
	})
	if err != nil {
		if sealer != nil {
			sealer.Close()
		}
		return err
	}

	// The daemon's arrival clock: every live timestamp — packet arrivals,
	// control frames, limit leases, health ages — is seconds since this
	// instant, so the clocks of all the daemon's surfaces agree.
	start := time.Now()

	var node *cluster.Node
	if o.routerID != 0 {
		tr := &udpTransport{}
		defer tr.Close()
		node, err = cluster.New(cluster.Config{
			RouterID:   uint32(o.routerID),
			Peers:      peers,
			Transport:  tr,
			Installer:  engine,
			PacketSize: rc.PacketSize,
			Telemetry:  reg,
		})
		if err != nil {
			return err
		}
		if o.control != "" {
			cconn, err := net.ListenPacket("udp", o.control)
			if err != nil {
				return err
			}
			defer cconn.Close()
			go serveControl(cconn, node, reg, start)
			fmt.Fprintf(os.Stderr, "flocd: control on %s, router %d, %d peers\n",
				cconn.LocalAddr(), o.routerID, len(peers))
		}
	}

	if o.metrics != "" {
		h := &health{engine: engine, node: node, start: start}
		srv := &http.Server{Addr: o.metrics, Handler: serveMux(reg, h, o.pprof)}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "flocd: metrics:", err)
			}
		}()
		defer srv.Close()
	}

	if o.replay != "" {
		// A signal ends a replay as the end of the capture does: the read
		// fails on the closed file, and what was read is finished and
		// sealed.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		f, err := os.Open(o.replay)
		if err != nil {
			return err
		}
		defer f.Close()
		defer context.AfterFunc(ctx, func() { f.Close() })()
		n, malformed, end, err := replayCapture(ctx, f, engine, reg)
		if err != nil {
			return captureError(o.replay, err)
		}
		engine.Advance(end)
		snap := finish(os.Stdout, engine, reg, o.snapshot, o.printMet)
		if err := sealLedger(sealer, o.ledger, snap); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "flocd: replayed %d packets over %.3fs of capture time on %d shards (%d malformed lines skipped)\n",
			n, end, engine.Shards(), malformed)
		return nil
	}

	conn, err := net.ListenPacket("udp", o.listen)
	if err != nil {
		return err
	}
	defer conn.Close()
	fmt.Fprintf(os.Stderr, "flocd: listening on %s, %d shards\n", conn.LocalAddr(), engine.Shards())
	drops := watchKernelDrops(conn, reg)

	// SIGTERM is what kill, systemd and container runtimes send: it stops
	// the daemon as SIGINT does, with the ledger sealed.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-stop
		drops.refresh() // the socket's count goes with the socket
		conn.Close()    // unblocks the read loop
	}()
	var stopLoop chan struct{}
	if node != nil {
		stopLoop = make(chan struct{})
		go clusterLoop(node, engine, start, stopLoop)
	}
	if err := serveUDP(conn, engine, reg, start); err != nil {
		return err
	}
	if stopLoop != nil {
		close(stopLoop) // quiesce the control loop before draining the engine
	}
	snap := finish(os.Stdout, engine, reg, o.snapshot, o.printMet)
	return sealLedger(sealer, o.ledger, snap)
}

// finish takes the final snapshot — itself a drain barrier on every
// shard — writes the requested end-of-run reports to w, and returns it.
func finish(w io.Writer, e *dataplane.Engine, reg *telemetry.Registry, snapshot, printMet bool) core.Snapshot {
	snap := e.Snapshot()
	e.Close()
	if snapshot {
		fmt.Fprint(w, snap.String())
		st := e.Stats()
		fmt.Fprintf(w, "dataplane: accepted=%d ring-drops=%d processed=%d\n",
			st.Accepted, st.RingDrops, st.Processed)
	}
	if printMet {
		_ = reg.WriteText(w)
	}
	return snap
}

// sealLedger closes the sealer, stores the run's claimed snapshot next to
// the ledger, and logs the chain head — the line to publish out-of-band:
// an anchored head is what makes even a coordinated tail truncation of
// ledger and events files detectable later.
func sealLedger(sealer *ledger.Sealer, dir string, snap core.Snapshot) error {
	if sealer == nil {
		return nil
	}
	if err := sealer.CloseWithSnapshot(snap); err != nil {
		return err
	}
	head := sealer.Head()
	fmt.Fprintf(os.Stderr, "flocd: ledger: sealed %d segments (%d events) in %s; head %x\n",
		sealer.Segments(), sealer.Events(), dir, head[:])
	return nil
}

// health serves /healthz: a small JSON liveness document summarizing the
// dataplane since start, cheap enough for a tight probe interval. When
// the daemon is clustered, a cluster block reports the control plane's
// receive state: which origins are feeding it, how stale each one is,
// and how many limits are currently installed.
type health struct {
	engine *dataplane.Engine
	node   *cluster.Node
	start  time.Time
}

// clusterHealth is the /healthz cluster block: the node's protocol state
// plus the dataplane's installed-limit count.
type clusterHealth struct {
	cluster.Health
	InstalledLimits int `json:"installed_limits"`
}

func (h *health) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	st := h.engine.Stats()
	up := time.Since(h.start).Seconds()
	var cb *clusterHealth
	if h.node != nil {
		cb = &clusterHealth{
			Health:          h.node.Health(up),
			InstalledLimits: h.engine.InstalledLimits(),
		}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(struct {
		Status        string         `json:"status"`
		UptimeSeconds float64        `json:"uptime_seconds"`
		Shards        int            `json:"shards"`
		Accepted      int64          `json:"accepted"`
		Processed     int64          `json:"processed"`
		RingDrops     int64          `json:"ring_drops"`
		Cluster       *clusterHealth `json:"cluster,omitempty"`
	}{
		Status:        "ok",
		UptimeSeconds: up,
		Shards:        h.engine.Shards(),
		Accepted:      st.Accepted,
		Processed:     st.Processed,
		RingDrops:     st.RingDrops,
		Cluster:       cb,
	})
}

// serveMux routes the observability listener: /metrics always, /healthz
// when a health source is attached, and the pprof family opt-in (profiling
// endpoints can stall a loaded daemon, so they are never on by default).
func serveMux(reg *telemetry.Registry, h *health, withPprof bool) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	if h != nil {
		mux.Handle("/healthz", h)
	}
	if withPprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// probe fetches url and copies the body to w: the curl stand-in with
// which a shell harness reads a daemon's /metrics and /healthz. A non-2xx
// status is an error, so the harness can branch on the exit status.
func probe(w io.Writer, url string) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(w, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("%s: status %s", url, resp.Status)
	}
	return nil
}

// captureError adds the file name and the remedy to the error for a file
// that is not a capture at all; other errors pass through.
func captureError(path string, err error) error {
	if errors.Is(err, wire.ErrNotCapture) {
		return fmt.Errorf("%s: %w; regenerate it with flocd -gen", path, err)
	}
	return err
}

// replayCapture streams a capture into the engine, assigning packet IDs
// in capture order and interning path identifiers so per-packet decode
// stays allocation-light. Malformed capture records are counted and
// skipped, not fatal: one bad record should not void a long replay; a
// file that is not a capture fails at once. The count is returned for the
// run summary and published per error kind as
// floc_capture_malformed_lines_total. Mid-stream the burst hands full runs
// to the rings and the shard workers admit beside the parse; at end of
// capture the producer quiesces, so every packet read has been processed
// or has entered its ring by the time replayCapture returns, and the
// caller's Advance covers them all. A read that fails once ctx is done
// ends the capture there.
func replayCapture(ctx context.Context, r io.Reader, e *dataplane.Engine, reg *telemetry.Registry) (n int, malformed int64, end float64, err error) {
	cr := wire.NewCaptureReader(r)
	cr.SkipMalformed(true)
	p := newProducer(e)
	defer p.burst.Quiesce()
	var h wire.Header
	for {
		t, err := cr.Next(&h)
		if err == io.EOF || err != nil && ctx.Err() != nil {
			break
		}
		if err != nil {
			return n, cr.Malformed(), end, err
		}
		n++
		p.ingest(&h, uint64(n), t)
		end = t
	}
	malformedLines.total(reg)
	for kind, c := range cr.MalformedByKind() {
		if c != 0 {
			malformedLines.add(reg, wire.ErrorKind(kind), c)
		}
	}
	return n, cr.Malformed(), end, nil
}

// producer is the ingest state of the engine's one packet source: the
// interner that maps wire paths to router handles, the engine's burst,
// which stages packets in the shard rings, and the one packet every
// header is decoded into — the burst copies it, so it is free again as
// soon as Enqueue returns (DESIGN.md "Packet ownership").
type producer struct {
	e     *dataplane.Engine
	in    *wire.Interner
	burst *dataplane.Burst
	pkt   netsim.Packet
}

func newProducer(e *dataplane.Engine) *producer {
	return &producer{e: e, in: wire.NewInterner(), burst: e.NewBurst()}
}

// ingest hands one decoded header to the engine as packet id arriving at
// t — the one body both packet sources, socket and capture, share. The
// packet is staged by the producer's burst; the source flushes it.
func (p *producer) ingest(h *wire.Header, id uint64, t float64) {
	res := p.in.ResolveFull(h)
	if !res.Bound {
		// First packet of this path: intern it with its shard router so
		// every later packet carries the dense handle and the admission
		// path never hashes the path key.
		res.Handle = p.e.InternPath(res.ID)
		p.in.BindHandle(h, res.Handle)
	}
	h.ToPacket(&p.pkt, id, res.ID, res.Key, res.Handle)
	p.burst.Enqueue(&p.pkt, t)
}

// malformedFamily is a counter family for rejected input: an unlabelled
// total, registered even when nothing is rejected so a clean run exports
// an explicit zero, plus one reason-labelled series per wire.ErrorKind
// that fired.
type malformedFamily struct{ name, help, unit string }

var (
	malformedLines = malformedFamily{"floc_capture_malformed_lines_total",
		"capture lines skipped as malformed during replay", "lines"}
	malformedDatagrams = malformedFamily{"floc_ingest_malformed_datagrams_total",
		"datagrams discarded at ingest because wire.Decode rejected them", "datagrams"}
	controlFrameErrors = malformedFamily{"floc_cluster_control_frame_errors_total",
		"received control frames discarded because wire.DecodeControl rejected them", "frames"}
)

// total returns the family's unlabelled series, registering it.
func (m malformedFamily) total(reg *telemetry.Registry) *telemetry.Counter {
	return reg.Counter(m.name, m.help, m.unit)
}

// add counts n rejected inputs of one kind.
func (m malformedFamily) add(reg *telemetry.Registry, kind wire.ErrorKind, n int64) {
	m.total(reg).Add(n)
	reg.Counter(m.name+`{reason="`+kind.String()+`"}`, m.help, m.unit).Add(n)
}

// batchBounds are the buckets of the two socket batch-size histograms,
// which take one observation per syscall.
var batchBounds = []float64{1, 2, 4, 8, 16, 32, 64}

// serveUDP reads one wire header per datagram, up to udpbatch.MaxBatch
// datagrams per syscall, until the connection is closed, then serves the
// virtual transmitter up to the closing instant, so packets admitted and
// still queued are forwarded, not stranded. A vector that came back short
// means the socket is drained and the next read will block: the reader
// quiesces, processing the batch itself on every shard whose worker is
// parked (dataplane.Burst.Quiesce). A full vector means more input is
// queued: it hands the batch to the rings and keeps reading, and the
// worker pipeline re-forms by itself under overload. Either way nothing
// stays staged across a read. A datagram Decode rejects, or
// one that holds more than its one header, is discarded and counted by
// error kind. Arrival times are wall-clock seconds since start, taken per
// datagram as it is ingested — the instant the router sees it — not per
// batch: the daemon is the one place the repo meets real time, so the
// sim-time ban is lifted locally.
func serveUDP(conn net.PacketConn, e *dataplane.Engine, reg *telemetry.Registry, start time.Time) error {
	uc, ok := conn.(*net.UDPConn)
	if !ok {
		return fmt.Errorf("-listen socket is a %T, not a UDP socket", conn)
	}
	// One byte more than any header: a datagram that fills the buffer is
	// too long whatever the kernel cut off, and Decode never reads that far.
	rd, err := udpbatch.NewReader(uc, wire.MaxEncodedLen+1)
	if err != nil {
		return err
	}
	p := newProducer(e)
	malformedDatagrams.total(reg)
	batch := reg.Histogram("floc_ingest_batch_datagrams",
		"datagrams taken from the -listen socket per receive syscall", "datagrams", batchBounds)
	var h wire.Header
	id := uint64(0)
	for {
		n, err := rd.Read()
		if err != nil {
			// Closed socket is the clean shutdown path.
			e.Advance(time.Since(start).Seconds())
			return nil
		}
		batch.Observe(float64(n))
		for i := 0; i < n; i++ {
			b := rd.Datagram(i)
			used, err := wire.Decode(b, &h)
			if err != nil {
				malformedDatagrams.add(reg, wire.KindOfError(err), 1)
				continue
			}
			if used != len(b) {
				malformedDatagrams.add(reg, wire.ErrKindFraming, 1)
				continue
			}
			id++
			p.ingest(&h, id, time.Since(start).Seconds())
		}
		if n < udpbatch.MaxBatch {
			p.burst.Quiesce()
		} else {
			p.burst.Flush()
		}
	}
}

// kernelDrops exports the one loss no code path of the daemon sees:
// datagrams the kernel discarded because the -listen socket's receive
// buffer was full. The count is the socket's own
// (udpbatch.ReceiveDrops), read when someone looks — at scrape, at
// -print-metrics, at shutdown — and never per packet. A nil *kernelDrops
// (a platform where the count cannot be read) exports nothing.
type kernelDrops struct {
	conn *net.UDPConn
	ctr  *telemetry.Counter

	mu   sync.Mutex
	seen int64 // drops already added to ctr
}

// watchKernelDrops registers floc_ingest_kernel_drops_total for conn and
// refreshes it before every exposition.
func watchKernelDrops(conn net.PacketConn, reg *telemetry.Registry) *kernelDrops {
	uc, ok := conn.(*net.UDPConn)
	if !ok {
		return nil
	}
	if _, ok := udpbatch.ReceiveDrops(uc); !ok {
		return nil
	}
	k := &kernelDrops{conn: uc, ctr: reg.Counter("floc_ingest_kernel_drops_total",
		"datagrams the kernel dropped at the -listen socket's full receive buffer", "datagrams")}
	reg.OnCollect(k.refresh)
	return k
}

// refresh brings the counter up to the kernel's figure. Once the socket
// is closed the figure cannot be read and the last one read stands.
func (k *kernelDrops) refresh() {
	if k == nil {
		return
	}
	if drops, ok := udpbatch.ReceiveDrops(k.conn); ok {
		k.mu.Lock()
		if drops > k.seen {
			k.ctr.Add(drops - k.seen)
			k.seen = drops
		}
		k.mu.Unlock()
	}
}

// udpTransport carries cluster control frames: it dials each peer once,
// caches the connected socket, and writes one frame per datagram.
// cluster.Node serializes sends under its own lock, but the transport
// locks anyway so it stays safe if that ever changes.
type udpTransport struct {
	mu    sync.Mutex
	conns map[string]net.Conn
}

func (t *udpTransport) Send(peer string, frame []byte) error {
	t.mu.Lock()
	conn := t.conns[peer]
	if conn == nil {
		c, err := net.Dial("udp", peer)
		if err != nil {
			t.mu.Unlock()
			return err
		}
		if t.conns == nil {
			t.conns = map[string]net.Conn{}
		}
		t.conns[peer] = c
		conn = c
	}
	t.mu.Unlock()
	_, err := conn.Write(frame)
	return err
}

func (t *udpTransport) Close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, c := range t.conns {
		c.Close()
	}
}

// udpForwarder is the dataplane egress sink for a chained deployment:
// every packet the router transmits is re-encoded as a wire header and
// forwarded to the next hop's data port, so one daemon's egress becomes
// another's ingress (the multi-router tree of the cluster harness). Emit
// encodes the packet into a queued frame and keeps nothing of it, as a
// dataplane.Flusher must; frames leave together, one sendmmsg for up to
// udpbatch.MaxBatch of them, when the vector fills or a shard's role
// holder flushes.
type udpForwarder struct {
	conn *net.UDPConn
	mu   sync.Mutex // the shards' role holders share the one vector
	w    *udpbatch.Writer

	encodeErrs, sendErrs, fallbacks *telemetry.Counter
	batch                           *telemetry.Histogram
}

func newUDPForwarder(addr string, reg *telemetry.Registry) (*udpForwarder, error) {
	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return nil, err
	}
	w, err := udpbatch.NewWriter(conn, wire.MaxEncodedLen)
	if err != nil {
		conn.Close()
		return nil, err
	}
	const name, help = "floc_egress_errors_total", "transmitted packets lost at egress, by failing stage"
	return &udpForwarder{
		conn:       conn,
		w:          w,
		encodeErrs: reg.Counter(name+`{stage="encode"}`, help, "packets"),
		sendErrs:   reg.Counter(name+`{stage="send"}`, help, "packets"),
		fallbacks: reg.Counter("floc_egress_gso_fallbacks_total",
			"times the kernel refused UDP_SEGMENT and forwarding fell back to one message per datagram", ""),
		batch: reg.Histogram("floc_egress_batch_datagrams",
			"datagrams handed to the -forward socket per send syscall", "datagrams", batchBounds),
	}, nil
}

// Emit implements dataplane.PacketSink. It encodes the packet into the
// vector before it returns and keeps nothing of it, so the shard reuses
// the packet as soon as Emit returns. The shards' role holders call it
// concurrently; the mutex covers only the append to the shared vector. A
// packet that does not encode is counted and dropped.
func (f *udpForwarder) Emit(pkt *netsim.Packet, now float64) {
	var h wire.Header
	var buf [wire.MaxEncodedLen]byte
	frame, err := buf[:0], wire.FromPacket(&h, pkt)
	if err == nil {
		frame, err = wire.MarshalAppend(frame, &h)
	}
	if err != nil {
		f.encodeErrs.Inc()
		return
	}
	f.mu.Lock()
	if f.w.Add(frame) {
		f.flushLocked()
	}
	f.mu.Unlock()
}

// Flush implements dataplane.Flusher: whatever any shard has queued goes
// out now.
func (f *udpForwarder) Flush() {
	f.mu.Lock()
	f.flushLocked()
	f.mu.Unlock()
}

// flushLocked sends the vector. Frames the kernel did not take are counted
// as send losses, one per packet, and never retried — a forwarding daemon
// must not stall its own transmit loop on the next hop.
func (f *udpForwarder) flushLocked() {
	n := f.w.Len()
	if n == 0 {
		return
	}
	segmenting := f.w.Segmenting()
	f.sendErrs.Add(int64(f.w.Flush()))
	f.batch.Observe(float64(n))
	if segmenting && !f.w.Segmenting() {
		f.fallbacks.Inc()
	}
}

func (f *udpForwarder) Close() { _ = f.conn.Close() }

// serveControl feeds received control frames into the cluster node,
// stamped on the daemon's shared arrival clock. Undecodable frames are
// dropped by HandleFrame and counted by error kind; a closed socket ends
// the loop.
func serveControl(conn net.PacketConn, node *cluster.Node, reg *telemetry.Registry, start time.Time) {
	buf := make([]byte, wire.MaxControlEncodedLen+1)
	controlFrameErrors.total(reg)
	for {
		n, _, err := conn.ReadFrom(buf)
		if err != nil {
			return
		}
		now := time.Since(start).Seconds()
		// ReadFrom returns n <= len(buf) by the PacketConn contract, so a
		// datagram longer than any frame arrives one byte too long, and
		// HandleFrame refuses bytes after the frame as framing.
		if _, err := node.HandleFrame(buf[:n], now); err != nil {
			controlFrameErrors.add(reg, wire.KindOfError(err), 1)
		}
	}
}

// clusterLoop drives the node's periodic duties on the arrival clock:
// publish fresh feedback derived from the engine snapshot, retransmit
// pending frames, and sweep expired limit leases.
func clusterLoop(node *cluster.Node, e *dataplane.Engine, start time.Time, stop <-chan struct{}) {
	tick := time.NewTicker(250 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		now := time.Since(start).Seconds()
		node.Publish(e.Snapshot(), now)
		node.Tick(now)
		e.SweepLimits(now)
	}
}

// sendCapture transmits a capture to a daemon's data port as one UDP
// datagram per packet, paced by the capture timestamps scaled by pace
// (real seconds per capture second; 0 disables pacing). This is the
// traffic source of the cluster harness: -gen writes the capture, one
// flocd sends it live, the daemon tree defends against it.
func sendCapture(r io.Reader, addr string, pace float64) error {
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	cr := wire.NewCaptureReader(r)
	cr.SkipMalformed(true)
	sent, unencodable, err := transmitCapture(cr.Next, conn, pace)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "flocd: sent %d packets to %s (%d malformed lines skipped, %d unencodable headers skipped)\n",
		sent, addr, cr.Malformed(), unencodable)
	return nil
}

// transmitCapture writes each header next yields to conn as one datagram,
// until next returns io.EOF. A header that does not encode is skipped and
// counted, never silently dropped.
func transmitCapture(next func(*wire.Header) (float64, error), conn io.Writer, pace float64) (sent, unencodable int, err error) {
	var h wire.Header
	buf := make([]byte, 0, wire.MaxEncodedLen)
	start := time.Now()
	for {
		t, err := next(&h)
		if err == io.EOF {
			return sent, unencodable, nil
		}
		if err != nil {
			return sent, unencodable, err
		}
		if pace > 0 {
			due := time.Duration(t * pace * float64(time.Second))
			if d := due - time.Since(start); d > 0 {
				time.Sleep(d)
			}
		}
		b, err := wire.MarshalAppend(buf[:0], &h)
		if err != nil {
			unencodable++
			continue
		}
		buf = b
		if _, err := conn.Write(b); err != nil {
			return sent, unencodable, err
		}
		sent++
	}
}

// generateCapture writes a deterministic synthetic capture: nPaths
// legitimate CBR senders plus one flooding path at 8x their rate, over
// enough virtual time to exercise the control loop.
func generateCapture(w io.Writer, packets int, seed uint64) error {
	cw := wire.NewCaptureWriter(w)
	src := rng.New(seed)
	const nPaths = 8
	paths := make([][]pathid.ASN, nPaths+1)
	for i := range paths {
		paths[i] = []pathid.ASN{pathid.ASN(100 + i), pathid.ASN(10 + i%3), 1}
	}
	// Per-tick weights: the last path (the flooder) sends 8 packets for
	// every legitimate path's one. Tick k is at 2k ms, computed as one
	// division so that it is a whole number of nanoseconds, which the
	// writer requires; a running sum of 0.002 is not.
	written := 0
	for k := 1; written < packets; k++ {
		t := float64(2*k) / 1000
		for p := 0; p <= nPaths && written < packets; p++ {
			reps := 1
			if p == nPaths {
				reps = 8
			}
			for r := 0; r < reps && written < packets; r++ {
				h := wire.Header{
					Version: wire.Version1,
					Kind:    netsim.KindUDP,
					Src:     uint32(p + 1),
					Dst:     9999,
					Length:  uint16(600 + src.Intn(900)),
					PathLen: uint8(len(paths[p])),
				}
				copy(h.Path[:], paths[p])
				if p == nPaths {
					h.Flags |= wire.FlagAttack
				}
				if err := cw.Write(t, &h); err != nil {
					return err
				}
				written++
			}
		}
	}
	return cw.Flush()
}
