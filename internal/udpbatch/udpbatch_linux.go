//go:build amd64 || arm64

package udpbatch

import (
	"net"
	"os"
	"syscall"
	"unsafe"
)

// mmsghdr is struct mmsghdr of <sys/socket.h> on 64-bit Linux: a msghdr
// and the byte count the kernel reports for that message.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

// segmentCmsg is the one control message a Writer ever attaches:
// SOL_UDP/UDP_SEGMENT with the segment size, padded as CMSG_SPACE asks.
type segmentCmsg struct {
	hdr  syscall.Cmsghdr
	size uint16
	_    [6]byte
}

const (
	solUDP     = 17  // SOL_UDP
	udpSegment = 103 // UDP_SEGMENT, Linux 4.18

	soMeminfo      = 55 // SO_MEMINFO, Linux 3.17
	skMeminfoDrops = 8  // SK_MEMINFO_DROPS: the socket's sk_drops
	skMeminfoVars  = 9  // SK_MEMINFO_VARS: length of the SO_MEMINFO array
)

// ReceiveDrops returns how many datagrams the kernel has dropped at
// conn's full receive buffer — SK_MEMINFO_DROPS of getsockopt(SOL_SOCKET,
// SO_MEMINFO), the count /proc/net/udp prints as drops. ok is false when
// it cannot be read: the socket is closed.
func ReceiveDrops(conn *net.UDPConn) (drops int64, ok bool) {
	rc, err := conn.SyscallConn()
	if err != nil {
		return 0, false
	}
	var mem [skMeminfoVars]uint32
	var errno syscall.Errno
	err = rc.Control(func(fd uintptr) {
		size := uint32(unsafe.Sizeof(mem))
		_, _, errno = syscall.Syscall6(syscall.SYS_GETSOCKOPT, fd, syscall.SOL_SOCKET, soMeminfo,
			uintptr(unsafe.Pointer(&mem)), uintptr(unsafe.Pointer(&size)), 0)
	})
	if err != nil || errno != 0 {
		return 0, false
	}
	return int64(mem[skMeminfoDrops]), true
}

// Reader receives datagrams from a UDP socket up to MaxBatch at a time.
type Reader struct {
	rc   syscall.RawConn
	size int
	buf  []byte
	msgs [MaxBatch]mmsghdr
	iovs [MaxBatch]syscall.Iovec
	poll func(fd uintptr) bool // r.recv, bound once so Read does not allocate

	n     int // recv's result for Read
	errno syscall.Errno
}

// NewReader returns a Reader on conn whose datagrams are cut to size
// bytes: a longer datagram is delivered as its first size bytes.
func NewReader(conn *net.UDPConn, size int) (*Reader, error) {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil, err
	}
	r := &Reader{rc: rc, size: size, buf: make([]byte, MaxBatch*size)}
	for i := range r.msgs {
		r.iovs[i] = syscall.Iovec{Base: &r.buf[i*size], Len: uint64(size)}
		r.msgs[i].hdr.Iov = &r.iovs[i]
		r.msgs[i].hdr.Iovlen = 1
	}
	r.poll = r.recv
	return r, nil
}

// Read blocks until at least one datagram is queued, takes every queued
// datagram up to MaxBatch in one recvmmsg, and returns how many it took;
// Datagram(0) … Datagram(n-1) are valid until the next Read. The wait is
// the runtime netpoller's, so closing the connection ends a blocked Read
// with an error.
func (r *Reader) Read() (int, error) {
	if err := r.rc.Read(r.poll); err != nil {
		return 0, err
	}
	if r.errno != 0 {
		return 0, syscallError("recvmmsg", r.errno)
	}
	return r.n, nil
}

// recv is Read's body under the netpoller: false means "nothing queued,
// wait for readability". The call is raw, like sendmmsg in Writer.send:
// MSG_DONTWAIT means it never blocks, so it skips the runtime's
// entersyscall/exitsyscall, and the netpoller stays the read cycle's
// only wait (see the package comment).
func (r *Reader) recv(fd uintptr) bool {
	for {
		n, _, errno := syscall.RawSyscall6(sysRecvmmsg, fd,
			uintptr(unsafe.Pointer(&r.msgs[0])), MaxBatch, syscall.MSG_DONTWAIT, 0, 0)
		switch errno {
		case 0:
			r.n, r.errno = int(n), 0
			return true
		case syscall.EINTR:
		case syscall.EAGAIN:
			return false
		default:
			r.n, r.errno = 0, errno
			return true
		}
	}
}

// Datagram returns the i-th datagram of the last Read. The bytes are the
// sender's: nothing about them has been checked.
func (r *Reader) Datagram(i int) []byte {
	off := i * r.size
	return r.buf[off : off+min(int(r.msgs[i].n), r.size)]
}

func syscallError(call string, errno syscall.Errno) error {
	return os.NewSyscallError(call, errno)
}

// Writer collects frames (Add) and sends them as one datagram each in a
// single sendmmsg (Flush).
type Writer struct {
	frames
	rc syscall.RawConn

	// segment says runs of equal-length frames still go out as one
	// UDP_SEGMENT message; it is cleared for good when the kernel refuses
	// one. proven is set once the kernel has accepted one.
	segment, proven bool

	msgs  [MaxBatch]mmsghdr
	iovs  [MaxBatch]syscall.Iovec
	ctl   [MaxBatch]segmentCmsg
	first [MaxBatch + 1]int     // first[j] is message j's first frame; first[m] is Len()
	poll  func(fd uintptr) bool // w.send, bound once so Flush does not allocate
	lost  int                   // send's result for Flush
}

// NewWriter returns a Writer on the connected socket conn with room for
// MaxBatch frames of up to frameCap bytes.
func NewWriter(conn *net.UDPConn, frameCap int) (*Writer, error) {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil, err
	}
	w := &Writer{rc: rc, segment: true}
	w.buf = make([]byte, 0, MaxBatch*frameCap)
	for j := range w.msgs {
		w.msgs[j].hdr.Iov = &w.iovs[j]
		w.msgs[j].hdr.Iovlen = 1
		w.ctl[j].hdr = syscall.Cmsghdr{
			Len:   uint64(unsafe.Offsetof(w.ctl[j].size) + unsafe.Sizeof(w.ctl[j].size)),
			Level: solUDP,
			Type:  udpSegment,
		}
	}
	w.poll = w.send
	return w, nil
}

// Segmenting reports whether equal-length runs are still coalesced.
func (w *Writer) Segmenting() bool { return w.segment }

// Flush hands every pending frame to the kernel, in order, and empties
// the vector. It never waits for the socket: a frame the kernel does not
// take at once — full send buffer, refused or closed connection — is lost,
// and the call moves on to the next. It returns how many frames were lost.
func (w *Writer) Flush() (lost int) {
	w.lost = 0
	if w.n > 0 && w.rc.Write(w.poll) != nil {
		w.lost = w.n // closed before send could run
	}
	w.reset()
	return w.lost
}

// send is Flush's body under the connection's write lock. Each maximal
// run of consecutive equal-length frames is one message carrying
// UDP_SEGMENT = that length, which the kernel takes through the IP stack
// once and delivers as one datagram per frame; a run of one is a plain
// message. sendmmsg stops at the first message that fails: send counts
// that message's frames lost and resumes after it, so a dead peer costs
// syscalls but never stalls the caller. The call is raw, like recvmmsg
// in Reader.recv, and for the same reason: MSG_DONTWAIT, so it cannot
// block while it holds its P (see the package comment).
func (w *Writer) send(fd uintptr) bool {
	m := w.layOut(0)
	for j := 0; j < m; {
		run := w.segments(j) > 1
		sent, _, errno := syscall.RawSyscall6(sysSendmmsg, fd,
			uintptr(unsafe.Pointer(&w.msgs[j])), uintptr(m-j), syscall.MSG_DONTWAIT, 0, 0)
		switch {
		case errno == syscall.EINTR:
		case errno == 0:
			if run {
				w.proven = true
			}
			j += int(sent)
			// A short count means message j failed and sendmmsg kept the
			// errno to itself. While the kernel has yet to accept a
			// segmented message, a run is retried at the head of the next
			// call, where a refusal shows its errno; anything else is lost.
			if j < m && (w.proven || w.segments(j) == 1) {
				w.lost += w.segments(j)
				j++
			}
		case run && (errno == syscall.EIO || errno == syscall.EINVAL || errno == syscall.ENOPROTOOPT):
			// No segmentation offload on this kernel, route or device:
			// stop asking, and send this run and the rest as plain messages.
			w.segment = false
			m, j = w.layOut(w.first[j]), 0
		default:
			w.lost += w.segments(j)
			j++
		}
	}
	return true
}

// segments returns how many frames message j of the last layOut carries.
func (w *Writer) segments(j int) int { return w.first[j+1] - w.first[j] }

// layOut describes frames [from, Len()) as messages msgs[0:m] and returns m.
func (w *Writer) layOut(from int) (m int) {
	for i := from; i < w.n; m++ {
		size := w.offs[i+1] - w.offs[i]
		k := i + 1
		for w.segment && k < w.n && w.offs[k+1]-w.offs[k] == size {
			k++
		}
		w.first[m] = i
		w.iovs[m] = syscall.Iovec{Base: &w.buf[w.offs[i]], Len: uint64(w.offs[k] - w.offs[i])}
		h := &w.msgs[m].hdr
		h.Control, h.Controllen = nil, 0
		if k-i > 1 {
			w.ctl[m].size = uint16(size)
			h.Control, h.Controllen = (*byte)(unsafe.Pointer(&w.ctl[m])), uint64(unsafe.Sizeof(w.ctl[m]))
		}
		i = k
	}
	w.first[m] = w.n
	return m
}
