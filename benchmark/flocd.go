package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// findRoot walks up from the working directory to the checkout root, the
// directory that holds cmd/flocd.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "flocd", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no cmd/flocd above the working directory: run from a checkout of the repo")
		}
		dir = parent
	}
}

// buildFlocd compiles the daemon from the checkout's source into dir and
// returns the binary's path and the build's wall time.
func buildFlocd(ctx context.Context, root, dir string) (string, float64, error) {
	bin := filepath.Join(dir, "flocd")
	start := nanos()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/flocd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/flocd: %w\n%s", err, out)
	}
	return bin, seconds(nanos() - start), nil
}

// child is one flocd process. Its stderr is scanned line by line for the
// addresses the daemon prints; its stdout is collected for the end-of-run
// reports. The context passed to startChild carries the process's
// deadline: when it expires, or the benchmark is interrupted, the process
// is killed.
type child struct {
	cmd    *exec.Cmd
	stdout bytes.Buffer

	mu     sync.Mutex
	stderr bytes.Buffer
	addrs  chan [2]string // {"listening"|"control", address}
	done   chan struct{}  // closed when stderr hits EOF
	start  int64
}

var addrLine = regexp.MustCompile(`^flocd: (listening|control) on ([^,]+),`)

func startChild(ctx context.Context, bin string, args ...string) (*child, error) {
	c := &child{
		cmd: exec.CommandContext(ctx, bin, args...),
		// Two address lines at most; buffered so the scanner never blocks
		// on a reader that has stopped listening.
		addrs: make(chan [2]string, 2),
		done:  make(chan struct{}),
	}
	c.cmd.Stdout = &c.stdout
	pipe, err := c.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	c.start = nanos()
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	go c.scan(pipe)
	return c, nil
}

func (c *child) scan(r io.Reader) {
	defer close(c.done)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		c.mu.Lock()
		c.stderr.WriteString(line)
		c.stderr.WriteByte('\n')
		c.mu.Unlock()
		if m := addrLine.FindStringSubmatch(line); m != nil {
			select {
			case c.addrs <- [2]string{m[1], m[2]}:
			default:
			}
		}
	}
}

func (c *child) stderrText() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stderr.String()
}

// awaitAddr waits for the daemon to print the named address. A child that
// exits first, or says nothing for 10 s, is an error carrying its stderr.
func (c *child) awaitAddr(kind string) (string, error) {
	timeout := after(10 * time.Second)
	for {
		select {
		case a := <-c.addrs:
			if a[0] == kind {
				return a[1], nil
			}
		case <-c.done:
			c.kill()
			return "", fmt.Errorf("flocd exited before printing its %s address:\n%s", kind, c.stderrText())
		case <-timeout:
			c.kill()
			return "", fmt.Errorf("flocd printed no %s address within 10s:\n%s", kind, c.stderrText())
		}
	}
}

// usage is what the kernel accounted to a finished child.
type usage struct {
	userS, sysS float64
	wallS       float64
	rssMB       float64
}

func (u usage) cpuS() float64 { return u.userS + u.sysS }

// wait reaps the child. A non-zero exit is an error carrying its stderr.
func (c *child) wait() (usage, error) {
	<-c.done // Wait closes the pipe; drain it first so no line is lost
	err := c.cmd.Wait()
	wall := seconds(nanos() - c.start)
	if err != nil {
		return usage{}, fmt.Errorf("flocd %s: %w\n%s", strings.Join(c.cmd.Args[1:], " "), err, c.stderrText())
	}
	u := usage{
		userS: c.cmd.ProcessState.UserTime().Seconds(),
		sysS:  c.cmd.ProcessState.SystemTime().Seconds(),
		wallS: wall,
	}
	if ru, ok := c.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		u.rssMB = float64(ru.Maxrss) / 1024 // Linux reports kilobytes
	}
	return u, nil
}

// interrupt asks a live daemon to shut down cleanly and reaps it.
func (c *child) interrupt() (usage, error) {
	if err := c.cmd.Process.Signal(os.Interrupt); err != nil {
		c.kill()
		return usage{}, fmt.Errorf("signalling flocd: %w\n%s", err, c.stderrText())
	}
	return c.wait()
}

// kill ends the child on an error path; the exit status is of no interest.
func (c *child) kill() {
	_ = c.cmd.Process.Kill()
	<-c.done
	_ = c.cmd.Wait()
}

// report is what flocd printed at exit under -snapshot and -print-metrics.
type report struct {
	admitted  int64 // router "admitted=" from the snapshot header
	accepted  int64 // "dataplane:" line
	ringDrops int64
	processed int64
	metrics   map[string]float64 // Prometheus text samples by full name
}

var (
	admittedRe  = regexp.MustCompile(`^FLoc router: .* admitted=(\d+)$`)
	dataplaneRe = regexp.MustCompile(`^dataplane: accepted=(\d+) ring-drops=(\d+) processed=(\d+)$`)
)

func parseReport(stdout string) (report, error) {
	r := report{metrics: map[string]float64{}}
	var sawRouter, sawDataplane bool
	for _, line := range strings.Split(stdout, "\n") {
		switch {
		case strings.HasPrefix(line, "FLoc router:"):
			m := admittedRe.FindStringSubmatch(line)
			if m == nil {
				return r, fmt.Errorf("unparseable snapshot header %q", line)
			}
			r.admitted, _ = strconv.ParseInt(m[1], 10, 64)
			sawRouter = true
		case strings.HasPrefix(line, "dataplane:"):
			m := dataplaneRe.FindStringSubmatch(line)
			if m == nil {
				return r, fmt.Errorf("unparseable dataplane line %q", line)
			}
			r.accepted, _ = strconv.ParseInt(m[1], 10, 64)
			r.ringDrops, _ = strconv.ParseInt(m[2], 10, 64)
			r.processed, _ = strconv.ParseInt(m[3], 10, 64)
			sawDataplane = true
		case strings.HasPrefix(line, "floc_"):
			// "name{labels} value": the value follows the last space.
			if i := strings.LastIndexByte(line, ' '); i > 0 {
				if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
					r.metrics[line[:i]] = v
				}
			}
		}
	}
	if !sawRouter || !sawDataplane {
		return r, fmt.Errorf("flocd output lacks the snapshot header or the dataplane line:\n%s", firstLines(stdout, 5))
	}
	return r, nil
}

// metricSum adds every sample of a metric family, across label sets.
func (r report) metricSum(family string) float64 {
	var sum float64
	for name, v := range r.metrics {
		if name == family || strings.HasPrefix(name, family+"{") {
			sum += v
		}
	}
	return sum
}

func firstLines(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}

var replayedRe = regexp.MustCompile(`flocd: replayed (\d+) packets over [0-9.]+s of capture time on \d+ shards \((\d+) malformed lines skipped\)`)

// parseReplayed extracts the packet and malformed-line counts from the
// replay summary on stderr.
func parseReplayed(stderr string) (packets, malformed int64, err error) {
	m := replayedRe.FindStringSubmatch(stderr)
	if m == nil {
		return 0, 0, fmt.Errorf("no replay summary in flocd stderr:\n%s", stderr)
	}
	packets, _ = strconv.ParseInt(m[1], 10, 64)
	malformed, _ = strconv.ParseInt(m[2], 10, 64)
	return packets, malformed, nil
}
