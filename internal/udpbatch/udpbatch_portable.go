//go:build !linux || !(amd64 || arm64)

package udpbatch

import "net"

// Reader receives datagrams from a UDP socket; on this platform one per
// Read.
type Reader struct {
	conn *net.UDPConn
	buf  []byte
	n    int
}

// NewReader returns a Reader on conn whose datagrams are cut to size
// bytes: a longer datagram is delivered as its first size bytes.
func NewReader(conn *net.UDPConn, size int) (*Reader, error) {
	return &Reader{conn: conn, buf: make([]byte, size)}, nil
}

// Read blocks until a datagram arrives and returns 1; Datagram(0) is
// valid until the next Read. Closing the connection ends a blocked Read
// with an error.
func (r *Reader) Read() (int, error) {
	n, err := r.conn.Read(r.buf)
	if err != nil {
		return 0, err
	}
	r.n = n
	return 1, nil
}

// Datagram returns the datagram of the last Read. The bytes are the
// sender's: nothing about them has been checked.
func (r *Reader) Datagram(int) []byte { return r.buf[:r.n] }

// ReceiveDrops reports nothing on this platform: ok is always false.
func ReceiveDrops(*net.UDPConn) (drops int64, ok bool) { return 0, false }

// Writer collects frames (Add) and sends them as one datagram each
// (Flush).
type Writer struct {
	frames
	conn *net.UDPConn
}

// NewWriter returns a Writer on the connected socket conn with room for
// MaxBatch frames of up to frameCap bytes.
func NewWriter(conn *net.UDPConn, frameCap int) (*Writer, error) {
	w := &Writer{conn: conn}
	w.buf = make([]byte, 0, MaxBatch*frameCap)
	return w, nil
}

// Segmenting reports whether equal-length runs are coalesced: never, here.
func (w *Writer) Segmenting() bool { return false }

// Flush writes every pending frame, in order, and empties the vector. A
// frame whose write fails is lost and the call moves on to the next. It
// returns how many frames were lost.
func (w *Writer) Flush() (lost int) {
	for i := 0; i < w.n; i++ {
		if _, err := w.conn.Write(w.buf[w.offs[i]:w.offs[i+1]]); err != nil {
			lost++
		}
	}
	w.reset()
	return lost
}
