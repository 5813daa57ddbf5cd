// Package udpbatch moves UDP datagrams in vectors: a Reader that takes up
// to MaxBatch datagrams per recvmmsg(2) and a Writer that collects frames
// and sends them in one sendmmsg(2), coalescing runs of equal-length
// frames into single UDP_SEGMENT messages the kernel splits back into one
// datagram per frame. It is the module's only unsafe code — the raw
// syscalls Go's frozen syscall package stops short of — and exists so the
// daemon's socket loops pay one kernel crossing per burst instead of one
// per packet.
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
