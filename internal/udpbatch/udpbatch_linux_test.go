//go:build amd64 || arm64

package udpbatch

import (
	"syscall"
	"testing"
)

// TestRoundTripBatchesAndSegments: on Linux the round trip really is
// vectored — some Read returns more than one datagram — and, where the
// kernel segments, the 150-frame run went out as UDP_SEGMENT messages.
func TestRoundTripBatchesAndSegments(t *testing.T) {
	r, w, _ := loopback(t)
	if maxRead := roundTrip(t, r, w, mixedFrames(t, 1000)); maxRead < 2 {
		t.Fatalf("no Read returned more than %d datagram of a 64-frame flush", maxRead)
	}
	if !w.Segmenting() {
		t.Skip("this kernel refuses UDP_SEGMENT on loopback: the round trip ran on the fallback")
	}
	if !w.proven {
		t.Fatal("runs of equal-length frames were flushed, yet no segmented message was ever accepted")
	}
}

// TestRoundTripSegmentationOff is the same round trip with the fallback
// bool cleared from the start: one plain message per frame.
func TestRoundTripSegmentationOff(t *testing.T) {
	r, w, _ := loopback(t)
	w.segment = false
	roundTrip(t, r, w, mixedFrames(t, 1000))
	if w.proven {
		t.Fatal("a segmented message went out with segmentation off")
	}
}

// TestSegmentationRefusalFallsBack provokes a real refusal: the kernel
// answers EINVAL to UDP_SEGMENT on a socket with transmit checksums off.
// The first run sits behind a plain frame, so its errno is swallowed by
// sendmmsg's short count and must be recovered by the retry at the head.
// Nothing is lost, and the Writer never asks again.
func TestSegmentationRefusalFallsBack(t *testing.T) {
	r, w, out := loopback(t)
	rc, err := out.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var serr error
	if err := rc.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_NO_CHECK, 1)
	}); err != nil || serr != nil {
		t.Fatalf("SO_NO_CHECK: %v, %v", err, serr)
	}
	frames := mixedFrames(t, 300)
	frames[0], frames[149] = frames[149], frames[0] // plain frame first, the run behind it
	frames[0], frames[200] = frames[200], frames[0] // (any frame of another length will do)
	if len(frames[0]) == len(frames[1]) {
		t.Fatal("test frames: the head must differ in length from the run behind it")
	}
	roundTrip(t, r, w, frames)
	if w.Segmenting() {
		t.Skip("this kernel segments even with SO_NO_CHECK set: no refusal to observe")
	}
	if w.proven {
		t.Fatal("a segmented message was accepted on a socket that must refuse them")
	}
}
