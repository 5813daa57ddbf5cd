package main

import (
	"bufio"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"floc/internal/ledger"
)

// daemonArgsEnv carries a command line to a re-executed test binary, one
// argument a line; TestMain then runs flocd's main on it instead of the
// tests, so a test can signal a real daemon process.
const daemonArgsEnv = "FLOCD_TEST_DAEMON_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(daemonArgsEnv); ok {
		os.Args = append([]string{"flocd"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// freeAddr returns a loopback TCP address that was free a moment ago.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// TestSIGTERMSealsLedger: SIGTERM — what kill, systemd and container
// runtimes send — stops a live -ledger daemon the way SIGINT does: it
// exits 0 with its ledger sealed and snapshot.json beside it, and the
// sealed events replay to that snapshot exactly.
func TestSIGTERMSealsLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a daemon process")
	}
	const packets, per = 300, 50
	ledgerDir := filepath.Join(t.TempDir(), "ledger")
	metrics := freeAddr(t)
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), daemonArgsEnv+"="+strings.Join([]string{
		"-listen", "127.0.0.1:0", "-shards", "1", "-metrics", metrics, "-ledger", ledgerDir,
	}, "\n"))
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// The daemon names its data address on stderr before it reads.
	addr, exited := make(chan string, 1), make(chan error, 1)
	go func() {
		lines := bufio.NewScanner(stderr)
		for lines.Scan() {
			if rest, ok := strings.CutPrefix(lines.Text(), "flocd: listening on "); ok {
				listen, _, _ := strings.Cut(rest, ",")
				addr <- listen
			}
		}
		exited <- cmd.Wait()
	}()
	waited := false
	defer func() {
		if !waited {
			cmd.Process.Kill()
			<-exited
		}
	}()
	var listen string
	select {
	case listen = <-addr:
	case err := <-exited:
		waited = true
		t.Fatalf("daemon exited before it listened: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never said where it listens")
	}

	accepted := func() int64 {
		resp, err := http.Get("http://" + metrics + "/healthz")
		if err != nil {
			return -1
		}
		defer resp.Body.Close()
		var doc struct {
			Accepted int64 `json:"accepted"`
		}
		if json.NewDecoder(resp.Body).Decode(&doc) != nil {
			return -1
		}
		return doc.Accepted
	}
	out, err := net.Dial("udp", listen)
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	// Send in rounds, each awaited, so no datagram is lost to a full
	// socket buffer and the snapshot's arrivals are known exactly.
	for sent := 0; sent < packets; {
		for i := 0; i < per; i++ {
			sent++
			if _, err := out.Write(testFrame(t, uint32(sent))); err != nil {
				t.Fatal(err)
			}
		}
		waitFor(t, "the daemon to accept every datagram sent", func() bool { return accepted() == int64(sent) })
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		waited = true
		if err != nil {
			t.Fatalf("daemon stopped by SIGTERM: %v, want exit status 0", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon still running 10 s after SIGTERM")
	}

	snap, err := ledger.ReadSnapshot(filepath.Join(ledgerDir, ledger.SnapshotName))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Arrived != packets {
		t.Fatalf("sealed snapshot saw %d arrivals, want %d", snap.Arrived, packets)
	}
	replayer := ledger.NewReplayer()
	if _, err := ledger.Verify(ledgerDir, replayer.Fold); err != nil {
		t.Fatal(err)
	}
	if diffs := replayer.Result().Diff(snap); len(diffs) != 0 {
		t.Fatalf("sealed events do not reproduce the snapshot:\n  %s", strings.Join(diffs, "\n  "))
	}
}
