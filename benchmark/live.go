package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync/atomic"
	"time"

	"floc/internal/wire"
)

const (
	tickNanos = int64(time.Millisecond) // the sender's schedule granularity
	setupReps = 15                      // live set-ups per run; setup_s is their median
)

// sink is the benchmark's end of flocd's -forward socket. It counts what
// the router let through, by ground-truth flag, and stamps probe transits.
type sink struct {
	conn   *net.UDPConn
	due    []atomic.Int64 // probe seq -> nanos() the probe was due to be sent
	legit  int64
	attack int64
	// transitUs are probe send->sink times, measured from when each probe
	// was due: a stalled sender counts against the packets it delayed.
	transitUs []float64
	err       error
	done      chan struct{}
}

func newSink(probes int) (*sink, error) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	// A deep receive queue keeps the sink from being the lossy hop; the
	// kernel clamps the request to its own ceiling, so failure is moot.
	_ = conn.SetReadBuffer(8 << 20)
	return &sink{conn: conn, due: make([]atomic.Int64, probes), done: make(chan struct{})}, nil
}

func (s *sink) addr() string { return s.conn.LocalAddr().String() }

// run reads until the socket's read deadline passes or it is closed.
func (s *sink) run() {
	defer close(s.done)
	buf := make([]byte, 2048)
	var h wire.Header
	for {
		n, _, err := s.conn.ReadFromUDP(buf)
		if err != nil {
			var ne net.Error
			if !errors.As(err, &ne) || !ne.Timeout() {
				if !errors.Is(err, net.ErrClosed) {
					s.err = err
				}
			}
			return
		}
		if _, err := wire.Decode(buf[:n], &h); err != nil {
			s.err = fmt.Errorf("flocd forwarded an undecodable datagram: %w", err)
			return
		}
		switch {
		case h.Dst == probeDst:
			s.legit++
			if int(h.Src) < len(s.due) {
				s.transitUs = append(s.transitUs, float64(nanos()-s.due[h.Src].Load())/1e3)
			}
		case h.Flags&wire.FlagAttack != 0:
			s.attack++
		default:
			s.legit++
		}
	}
}

// finish lets the sink read what is already queued, then stops it.
func (s *sink) finish() error {
	_ = s.conn.SetReadDeadline(deadlineIn(100 * time.Millisecond))
	<-s.done
	_ = s.conn.Close()
	return s.err
}

// liveRun is one open-loop run through the real daemon.
type liveRun struct {
	sent      int64
	sendS     float64   // wall time the schedule took to send
	lateUs    []float64 // per wake-up: how late the sender woke
	pauses    int       // wake-ups that found the daemon's receive queue too full to send
	sinkLegit int64
	sinkAtk   int64
	transitUs []float64
	use       usage
	rep       report
}

func flocdLiveArgs(w workload, forward string) []string {
	args := []string{
		"-listen", "127.0.0.1:0", "-forward", forward, "-shards", "2", "-capacity", "512",
		"-link", strconv.FormatFloat(w.link, 'g', -1, 64), "-snapshot", "-print-metrics",
	}
	if w.limited {
		args = append(args, "-router-id", "1", "-control", "127.0.0.1:0")
	}
	return args
}

// liveSetup is one set-up as a user pays it: generate the inputs, start
// flocd, wait until it listens.
type liveSetup struct {
	tr      *traffic
	daemon  *child
	listen  string
	control string
}

func setUpLive(ctx context.Context, bin string, w workload, seed uint64, packets int, forward string) (*liveSetup, error) {
	tr, err := generate(w, seed, packets)
	if err != nil {
		return nil, err
	}
	d, err := startChild(ctx, bin, flocdLiveArgs(w, forward)...)
	if err != nil {
		return nil, err
	}
	su := &liveSetup{tr: tr, daemon: d}
	if w.limited {
		// flocd prints the control address first.
		if su.control, err = d.awaitAddr("control"); err != nil {
			return nil, err
		}
	}
	if su.listen, err = d.awaitAddr("listening"); err != nil {
		return nil, err
	}
	return su, nil
}

// runLive sets the workload up setupReps times (keeping the last daemon),
// sends the schedule open-loop, stops the daemon with SIGINT and collects
// both ends' counts. The returned set-up time is the median repetition.
func runLive(ctx context.Context, bin string, w workload, seed uint64, runSeconds int) (*traffic, *liveRun, float64, error) {
	packets := w.rate * runSeconds
	// Children get the run length plus 10 s; a daemon still alive then is
	// killed and the run fails.
	ctx, cancel := context.WithTimeout(ctx, time.Duration(runSeconds+10)*time.Second)
	defer cancel()

	sk, err := newSink(packets/probeEvery + 1)
	if err != nil {
		return nil, nil, 0, err
	}
	go sk.run()
	stopSink := func() { _ = sk.conn.Close(); <-sk.done }

	var su *liveSetup
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if su != nil {
			su.daemon.kill()
		}
		start := nanos()
		if su, err = setUpLive(ctx, bin, w, seed, packets, sk.addr()); err != nil {
			stopSink()
			return nil, nil, 0, err
		}
		setups = append(setups, seconds(nanos()-start))
	}

	run, err := sendSchedule(w, su, sk)
	if err != nil {
		su.daemon.kill()
		stopSink()
		return nil, nil, 0, err
	}
	// Let the tail of the schedule clear the rings before the daemon
	// takes its final snapshot.
	sleepUntil(nanos() + 300*int64(time.Millisecond))
	if run.use, err = su.daemon.interrupt(); err != nil {
		stopSink()
		return nil, nil, 0, err
	}
	if err := sk.finish(); err != nil {
		return nil, nil, 0, err
	}
	run.sinkLegit, run.sinkAtk, run.transitUs = sk.legit, sk.attack, sk.transitUs
	if run.rep, err = parseReport(su.daemon.stdout.String()); err != nil {
		return nil, nil, 0, err
	}
	return su.tr, run, median(setups), nil
}

// sendSchedule is the paced generator: rate/1000 packets fall due every
// millisecond. The sender sleeps to each tick, holds the tick back while
// the daemon's receive queue is over a quarter full, and catches up on what
// it then owes at twice the offered rate. A daemon that keeps up never sees
// a pause, so the load is open-loop until the alternative is packet loss.
func sendSchedule(w workload, su *liveSetup, sk *sink) (*liveRun, error) {
	raddr, err := net.ResolveUDPAddr("udp", su.listen)
	if err != nil {
		return nil, err
	}
	data, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return nil, err
	}
	defer data.Close()
	rcvbuf, err := defaultRcvbuf(data)
	if err != nil {
		return nil, err
	}
	rxq, err := openRxQueue(su.listen, rcvbuf)
	if err != nil {
		return nil, fmt.Errorf("watching flocd's receive queue: %w", err)
	}
	defer rxq.close()
	var ctl net.Conn
	if w.limited {
		if ctl, err = net.Dial("udp", su.control); err != nil {
			return nil, err
		}
		defer ctl.Close()
	}
	seq := uint64(0)
	sendLimits := func() error {
		seq++
		frame, err := limitFrame(su.tr, seq)
		if err != nil {
			return err
		}
		_, err = ctl.Write(frame)
		return err
	}
	if w.limited {
		if err := sendLimits(); err != nil {
			return nil, fmt.Errorf("sending control frame: %w", err)
		}
		// The control socket gives no acknowledgement; 20 ms is ample for
		// a loopback datagram to be read and its eight limits installed.
		sleepUntil(nanos() + 20*int64(time.Millisecond))
	}

	tr := su.tr
	perTick := w.rate / 1000
	maxBurst := min(2*perTick, rxq.burst)
	run := &liveRun{lateUs: make([]float64, 0, len(tr.sched)/perTick+1)}
	probeBuf := make([]byte, wire.MaxEncodedLen)
	start := nanos()
	nextLimits := 5 * w.rate // packet index of the next control re-send
	for i := 0; i < len(tr.sched); {
		due := start + int64(i/perTick)*tickNanos
		sleepUntil(due)
		run.lateUs = append(run.lateUs, float64(nanos()-due)/1e3)
		// Backpressure: while the daemon's reader is behind, wait rather
		// than overrun its socket buffer (see rxQueue).
		for paused := false; ; paused = true {
			queued, err := rxq.queued()
			if err != nil {
				return nil, err
			}
			if queued <= rxq.limit {
				break
			}
			if !paused {
				run.pauses++
			}
			sleepUntil(nanos() + tickNanos/4)
		}
		now := nanos()
		if w.limited && i >= nextLimits {
			nextLimits += 5 * w.rate
			if err := sendLimits(); err != nil {
				return nil, fmt.Errorf("re-sending control frame: %w", err)
			}
		}
		// A sender that woke late owes every tick it slept through, but
		// pays back at most one extra tick per wake-up, and never more than
		// the daemon's receive buffer has room for.
		owed := min((int((now-start)/tickNanos)+1)*perTick, len(tr.sched)) - i
		burst := min(owed, maxBurst)
		for end := i + burst; i < end; i++ {
			if tr.sched[i] == probeSlot {
				sk.due[i/probeEvery].Store(start + int64(i/perTick)*tickNanos)
			}
			if _, err := data.Write(tr.frame(i, probeBuf)); err != nil {
				// A loopback send fails only when nothing listens any more.
				return nil, fmt.Errorf("sending packet %d: %w\nflocd stderr:\n%s", i, err, su.daemon.stderrText())
			}
			run.sent++
		}
		if burst < owed {
			sleepUntil(nanos() + tickNanos/2) // still behind: pause, do not flood
		}
	}
	run.sendS = seconds(nanos() - start)
	return run, nil
}
