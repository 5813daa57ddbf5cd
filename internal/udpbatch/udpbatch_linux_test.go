//go:build amd64 || arm64

package udpbatch

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"testing"
	"time"
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

// TestReadParksWithOneP guards the contract that lets both socket calls
// be raw syscalls: they pass MSG_DONTWAIT and never block. A raw call
// that blocked would keep its P, and under GOMAXPROCS=1 nothing else
// would run — not the timer, not the sender. So the test re-executes
// itself with GOMAXPROCS=1 and a 10 s deadline: in the child a Read on an
// empty socket must park in the netpoller, and a datagram a second
// goroutine sends 20 ms later must wake it. The child first clears the
// socket's O_NONBLOCK, as any holder of its os.File does by calling Fd
// (the flag belongs to the open file, which dup'ed descriptors share), so
// that MSG_DONTWAIT is all that keeps the call from blocking: without it
// on recvmmsg the child hangs and the deadline fails the test. The sendmmsg
// half has no such guard: loopback delivery is synchronous and a full
// receiver drops rather than pushes back, so loopback cannot make a
// sendmmsg block.
func TestReadParksWithOneP(t *testing.T) {
	if os.Getenv("UDPBATCH_ONE_P_CHILD") == "1" {
		readParksWithOneP(t)
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestReadParksWithOneP$", "-test.count=1", "-test.v")
	cmd.Env = append(os.Environ(), "UDPBATCH_ONE_P_CHILD=1", "GOMAXPROCS=1")
	out, err := cmd.CombinedOutput()
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		t.Fatalf("a Read with one P did not return within 10 s: a socket call blocked holding the only P\n%s", out)
	}
	if err != nil {
		t.Fatalf("child: %v\n%s", err, out)
	}
}

func readParksWithOneP(t *testing.T) {
	if n := runtime.GOMAXPROCS(0); n != 1 {
		t.Fatalf("child runs with GOMAXPROCS=%d, want 1", n)
	}
	r, _, out := loopback(t)
	var serr error
	if err := r.rc.Control(func(fd uintptr) { serr = syscall.SetNonblock(int(fd), false) }); err != nil || serr != nil {
		t.Fatalf("clearing O_NONBLOCK: %v, %v", err, serr)
	}
	const delay = 20 * time.Millisecond
	start := time.Now()
	go func() {
		time.Sleep(delay)
		if _, err := out.Write([]byte("wake")); err != nil {
			t.Error(err)
		}
	}()
	n, err := r.Read()
	if err != nil || n != 1 || string(r.Datagram(0)) != "wake" {
		t.Fatalf("Read = %d, %v; want the one datagram sent after %v", n, err, delay)
	}
	if waited := time.Since(start); waited < delay {
		t.Fatalf("Read returned after %v, before the datagram was sent: it did not park", waited)
	}
}
