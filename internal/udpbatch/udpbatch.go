// Package udpbatch moves UDP datagrams in vectors: a Reader that takes up
// to MaxBatch datagrams per recvmmsg(2) and a Writer that collects frames
// and sends them in one sendmmsg(2), coalescing runs of equal-length
// frames into single UDP_SEGMENT messages the kernel splits back into one
// datagram per frame. It is the module's only unsafe code — the raw
// syscalls Go's frozen syscall package stops short of — and exists so the
// daemon's socket loops pay one kernel crossing per burst instead of one
// per packet. ReceiveDrops reads the one socket figure the daemon
// exports, the datagrams the kernel dropped at a full receive buffer.
//
// Both calls are raw (syscall.RawSyscall6), and both pass MSG_DONTWAIT,
// so neither can block: a read cycle — netpoller wake, recvmmsg, the
// caller's work, sendmmsg, recvmmsg finding the socket empty, park —
// never enters the runtime's entersyscall/exitsyscall, which woke a
// sleeping sysmon and handed the P around on every cycle. The rule is
// all or nothing: a cycle with one wrapped call left paid as much as
// one with two. MSG_DONTWAIT is the contract that makes it safe: a raw
// call that blocked would hold its P, and with GOMAXPROCS=1 the whole
// program (TestReadParksWithOneP). A raw call holds its P for at most
// one vector's kernel work — 64 datagrams copied — which bounds how long
// a GC stop-the-world waits on it.
//
// The vectored implementation is Linux on amd64 and arm64. Everywhere else
// the same two types move one datagram per call through the net package,
// so callers build and behave identically, just without the batching.
//
// Neither type is safe for concurrent use; a Writer shared by several
// goroutines is locked by its owner.
package udpbatch

// MaxBatch is the number of datagrams one Read returns at most and the
// number of frames a Writer holds before it must be flushed. It is also
// the kernel's historical cap on segments per UDP_SEGMENT message
// (UDP_MAX_SEGMENTS), so one full vector of equal-length frames is
// exactly one legal message.
const MaxBatch = 64

// frames is a Writer's pending vector: the frames back to back in one
// buffer, so a run of equal-length frames is one contiguous span a single
// iovec can name. Frame i is buf[offs[i]:offs[i+1]].
type frames struct {
	buf  []byte
	offs [MaxBatch + 1]int // offs[0] is 0
	n    int
}

// Add copies a non-empty frame onto the vector and reports whether the
// vector is now full; a full vector must be flushed before the next Add.
// frame is not retained.
func (f *frames) Add(frame []byte) (full bool) {
	f.buf = append(f.buf, frame...)
	f.n++
	f.offs[f.n] = len(f.buf)
	return f.n == MaxBatch
}

// Len returns the number of frames waiting for Flush.
func (f *frames) Len() int { return f.n }

func (f *frames) reset() {
	f.buf = f.buf[:0]
	f.n = 0
}
