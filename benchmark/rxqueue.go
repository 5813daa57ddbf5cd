package main

import (
	"bytes"
	"fmt"
	"net"
	"net/netip"
	"os"
	"strconv"
	"syscall"
)

// maxTruesize bounds what the kernel charges a receive buffer for one of the
// benchmark's 26-byte datagrams (768 bytes on the kernels measured: the
// sk_buff plus its smallest data area).
const maxTruesize = 1280

// rxQueue is the sender's view of the daemon's data socket: how many bytes
// the kernel holds for a reader that has not picked them up yet. flocd reads
// one datagram per syscall from a default-sized receive buffer (~280 of these
// datagrams, 7 ms at 40 000 pps) and a datagram that arrives at a full buffer
// is dropped silently, so a reader that is off the CPU for longer than that
// loses packets no sender ever hears about. A link does not behave like
// that towards a paced neighbour, and a lost packet is a failed operation;
// the sender therefore holds a tick back while the queue is more than a
// quarter full — Ethernet PAUSE, in effect — and what it owes is paid back
// by the usual bounded catch-up. /proc/net/udp is the only place the kernel
// shows another process's queue; reading it costs the daemon nothing.
type rxQueue struct {
	f     *os.File
	local []byte // the socket's local_address column, e.g. "0100007F:A2C4"
	buf   []byte
	limit int64 // bytes queued above which the sender pauses
	burst int   // packets one wake-up may send without overrunning the buffer
}

// openRxQueue finds the socket listening on addr (IPv4 host:port). rcvbuf is
// the size of a default receive buffer, the daemon's.
func openRxQueue(addr string, rcvbuf int) (*rxQueue, error) {
	ap, err := netip.ParseAddrPort(addr)
	if err != nil || !ap.Addr().Is4() {
		return nil, fmt.Errorf("%q is not an IPv4 address and port", addr)
	}
	f, err := os.Open("/proc/net/udp")
	if err != nil {
		return nil, err
	}
	ip := ap.Addr().As4()
	q := &rxQueue{
		f: f,
		// The kernel prints the address as a host-order word; every host
		// this runs on is little-endian.
		local: []byte(fmt.Sprintf("%02X%02X%02X%02X:%04X", ip[3], ip[2], ip[1], ip[0], ap.Port())),
		buf:   make([]byte, 1<<16),
		// A pause at a quarter plus a burst of at most a half leaves the
		// last quarter of the buffer as margin.
		limit: int64(rcvbuf / 4),
		burst: rcvbuf / 2 / maxTruesize,
	}
	if _, err := q.queued(); err != nil {
		q.close()
		return nil, err
	}
	return q, nil
}

func (q *rxQueue) close() { _ = q.f.Close() }

// queued returns the bytes waiting in the socket's receive queue.
func (q *rxQueue) queued() (int64, error) {
	n, err := q.f.ReadAt(q.buf, 0)
	if n == 0 {
		return 0, fmt.Errorf("reading /proc/net/udp: %w", err)
	}
	// sl local_address rem_address st tx_queue:rx_queue ...
	for _, line := range bytes.Split(q.buf[:n], []byte{'\n'}) {
		f := bytes.Fields(line)
		if len(f) < 5 || !bytes.Equal(f[1], q.local) {
			continue
		}
		_, rx, ok := bytes.Cut(f[4], []byte{':'})
		if !ok {
			break
		}
		v, err := strconv.ParseInt(string(rx), 16, 64)
		if err != nil {
			break
		}
		return v, nil
	}
	return 0, fmt.Errorf("no readable row for socket %s in /proc/net/udp", q.local)
}

// defaultRcvbuf returns the receive-buffer size of a socket nobody has
// resized, which is what flocd's data socket has.
func defaultRcvbuf(c *net.UDPConn) (int, error) {
	raw, err := c.SyscallConn()
	if err != nil {
		return 0, err
	}
	var size int
	var serr error
	if err := raw.Control(func(fd uintptr) {
		size, serr = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF)
	}); err != nil {
		return 0, err
	}
	return size, serr
}
