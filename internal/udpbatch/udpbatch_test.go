package udpbatch

import (
	"bytes"
	"net"
	"testing"

	"floc/internal/netsim"
	"floc/internal/pathid"
	"floc/internal/wire"
)

// loopback returns a Reader on a fresh loopback socket and a Writer
// connected to it.
func loopback(t *testing.T) (*Reader, *Writer, *net.UDPConn) {
	t.Helper()
	in, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { in.Close() })
	out, err := net.DialUDP("udp", nil, in.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { out.Close() })
	r, err := NewReader(in, wire.MaxEncodedLen+1)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(out, wire.MaxEncodedLen)
	if err != nil {
		t.Fatal(err)
	}
	return r, w, out
}

// mixedFrames encodes n headers whose lengths exercise every shape the
// Writer lays out: one equal-length run far longer than a vector, then
// every path length 1…16 changing frame to frame, then short runs of two
// to five.
func mixedFrames(t *testing.T, n int) [][]byte {
	t.Helper()
	frames := make([][]byte, n)
	for i := range frames {
		pathLen := 3
		switch {
		case i >= 150 && i < 600:
			pathLen = 1 + i%16
		case i >= 600:
			pathLen = 1 + (i/(2+i%4))%16
		}
		h := wire.Header{Version: wire.Version1, Kind: netsim.KindUDP, Src: uint32(i), Dst: 9,
			Length: uint16(100 + i), PathLen: uint8(pathLen)}
		for p := 0; p < pathLen; p++ {
			h.Path[p] = pathid.ASN(1000*i + p)
		}
		b, err := wire.MarshalAppend(nil, &h)
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = b
	}
	return frames
}

// roundTrip pushes frames through w in full vectors and reads them back
// through r after every flush (loopback delivery is synchronous, so what a
// flush sent is queued by the time it returns). Every frame must arrive as
// its own datagram, byte-identical, in order. It returns the largest
// number of datagrams one Read returned.
func roundTrip(t *testing.T, r *Reader, w *Writer, frames [][]byte) (maxRead int) {
	t.Helper()
	got := 0
	drain := func(upTo int) {
		t.Helper()
		if pending, lost := w.Len(), w.Flush(); lost != 0 || pending+got != upTo {
			t.Fatalf("flush up to frame %d: %d pending, %d lost with %d already received", upTo, pending, lost, got)
		}
		for got < upTo {
			n, err := r.Read()
			if err != nil {
				t.Fatalf("read after %d datagrams: %v", got, err)
			}
			maxRead = max(maxRead, n)
			for i := 0; i < n; i++ {
				if b := r.Datagram(i); !bytes.Equal(b, frames[got]) {
					t.Fatalf("datagram %d = %x (%d bytes), want frame %x (%d bytes)",
						got, b, len(b), frames[got], len(frames[got]))
				}
				got++
			}
		}
	}
	for i, f := range frames {
		if w.Add(f) {
			drain(i + 1)
		}
	}
	if w.Len() > 0 {
		drain(len(frames))
	}
	if w.Len() != 0 {
		t.Fatalf("%d frames pending after the last flush", w.Len())
	}
	return maxRead
}

func TestRoundTripMixedLengths(t *testing.T) {
	r, w, _ := loopback(t)
	roundTrip(t, r, w, mixedFrames(t, 1000))
}

// TestReaderCutsLongDatagrams: a datagram longer than the Reader's size is
// delivered as exactly size bytes — for a caller that sizes one byte past
// its longest legal frame, "fills the buffer" means "too long".
func TestReaderCutsLongDatagrams(t *testing.T) {
	r, _, out := loopback(t)
	long := bytes.Repeat([]byte{0xab}, 4*wire.MaxEncodedLen)
	for _, n := range []int{0, 1, wire.MaxEncodedLen, wire.MaxEncodedLen + 1, len(long)} {
		if _, err := out.Write(long[:n]); err != nil {
			t.Fatal(err)
		}
		if got, err := r.Read(); got != 1 || err != nil {
			t.Fatalf("Read = %d, %v for one %d-byte datagram", got, err, n)
		}
		if got, want := len(r.Datagram(0)), min(n, wire.MaxEncodedLen+1); got != want {
			t.Fatalf("%d-byte datagram delivered as %d bytes, want %d", n, got, want)
		}
	}
}

// TestReadEndsWhenConnectionCloses: Close is how the daemon stops its
// read loop, so a Reader parked in the netpoller must wake with an error.
func TestReadEndsWhenConnectionCloses(t *testing.T) {
	in, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(in, 64)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := r.Read()
		done <- err
	}()
	in.Close()
	if err := <-done; err == nil {
		t.Fatal("Read returned without error after Close")
	}
}

// TestRefusedPeerCountsLosses: towards a port nobody listens on, the
// refusals the kernel reports are counted — never more than were pending —
// every flush empties the vector, and none stalls. A closed socket loses
// everything.
func TestRefusedPeerCountsLosses(t *testing.T) {
	dead, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	addr := dead.LocalAddr().(*net.UDPAddr)
	dead.Close()
	out, err := net.DialUDP("udp", nil, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	w, err := NewWriter(out, wire.MaxEncodedLen)
	if err != nil {
		t.Fatal(err)
	}
	frames := mixedFrames(t, 1000)
	total := 0
	flush := func() {
		t.Helper()
		pending := w.Len()
		lost := w.Flush()
		if lost < 0 || lost > pending || w.Len() != 0 {
			t.Fatalf("flush of %d frames reported %d lost and left %d pending", pending, lost, w.Len())
		}
		total += lost
	}
	for _, f := range frames {
		if w.Add(f) {
			flush()
		}
	}
	flush()
	if total == 0 {
		t.Fatal("no frame counted lost towards a refusing peer")
	}

	out.Close()
	w.Add(frames[0])
	w.Add(frames[1])
	if lost := w.Flush(); lost != 2 {
		t.Fatalf("flush on a closed socket lost %d frames, want both", lost)
	}
}

// TestZeroAllocUDPBatch holds the steady-state socket cycle to the
// per-packet contract: Add, Flush and Read allocate nothing.
func TestZeroAllocUDPBatch(t *testing.T) {
	r, w, _ := loopback(t)
	frames := mixedFrames(t, 200)[140:160] // the tail of a run, then mixed lengths
	cycle := func() {
		for _, f := range frames {
			w.Add(f)
		}
		if lost := w.Flush(); lost != 0 {
			t.Fatalf("flush lost %d frames", lost)
		}
		for got := 0; got < len(frames); {
			n, err := r.Read()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if len(r.Datagram(i)) != len(frames[got+i]) {
					t.Fatalf("datagram %d has %d bytes, want %d", got+i, len(r.Datagram(i)), len(frames[got+i]))
				}
			}
			got += n
		}
	}
	cycle()
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("Add/Flush/Read cycle allocates %.1f times, want 0", avg)
	}
}
