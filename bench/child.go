package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDpcd compiles cmd/dpcd from the module at root into dir and
// returns the binary's path. It runs on every invocation: with a warm
// build cache it costs well under a second, and a stale proxy binary
// would silently measure the wrong commit.
func buildDpcd(ctx context.Context, root, dir string) (string, error) {
	for _, need := range []string{"go.mod", filepath.Join("cmd", "dpcd")} {
		if _, err := os.Stat(filepath.Join(root, need)); err != nil {
			return "", fmt.Errorf("%s is not the repository root: %w", root, err)
		}
	}
	bin, err := filepath.Abs(filepath.Join(dir, "dpcd"))
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/dpcd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/dpcd: %w\n%s", err, out)
	}
	return bin, nil
}

// tailBuffer keeps the last max bytes written to it.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
	max int
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if over := len(t.buf) - t.max; over > 0 {
		t.buf = t.buf[over:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// child is a process the harness started: dpcd, or the origin.
type child struct {
	name   string
	cmd    *exec.Cmd
	url    string
	output *tailBuffer   // the process's stdout and stderr, for failure reports
	exited chan struct{} // closed once Wait has returned
}

const (
	spawnAttempts = 3
	readyTimeout  = 10 * time.Second
	stopGrace     = 2 * time.Second
)

// spawn starts a process that listens on a free loopback port and returns
// once ready answers 200. argv builds the command line for a given
// listen address. A port lost to another process between selection and
// bind is retried.
func spawn(name, bin, ready string, argv func(addr string) ([]string, error)) (*child, error) {
	var last error
	for i := 0; i < spawnAttempts; i++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		addr := "127.0.0.1:" + strconv.Itoa(port)
		args, err := argv(addr)
		if err != nil {
			return nil, err
		}
		c, err := spawnOnce(name, bin, addr, ready, args)
		if err == nil {
			return c, nil
		}
		last = err
		if !strings.Contains(err.Error(), "address already in use") {
			break
		}
	}
	return nil, last
}

func spawnOnce(name, bin, addr, ready string, args []string) (*child, error) {
	c := &child{
		name:   name,
		cmd:    exec.Command(bin, args...),
		url:    "http://" + addr,
		output: &tailBuffer{max: 16 << 10},
		exited: make(chan struct{}),
	}
	c.cmd.Stdout = c.output
	c.cmd.Stderr = c.output
	// If the harness dies without running its clean-up (a panic on
	// another goroutine, SIGKILL), the kernel kills the child with it.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go func() {
		_ = c.cmd.Wait() // exit status is reported through output
		close(c.exited)
	}()
	trackChild(c)
	if err := c.waitReady(ready); err != nil {
		c.stop()
		return nil, fmt.Errorf("%s %v: %w\n--- %s output ---\n%s", name, args, err, name, c.output)
	}
	return c, nil
}

// startDpcd launches the proxy binary against originURL with flags and
// waits for /_dpc/stats.
func startDpcd(bin, originURL string, flags []string) (*child, error) {
	return spawn("dpcd", bin, "/_dpc/stats", func(addr string) ([]string, error) {
		return append([]string{"-addr", addr, "-origin", originURL}, flags...), nil
	})
}

func (c *child) waitReady(path string) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(readyTimeout)
	for time.Now().Before(deadline) {
		select {
		case <-c.exited:
			return errors.New("exited before becoming ready")
		default:
		}
		resp, err := hc.Get(c.url + path)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("not ready after %v", readyTimeout)
}

// stop interrupts the process (so dpcd's disk-backed store closes its
// heap file), kills it if it has not exited within stopGrace, and returns
// only after it has been reaped.
func (c *child) stop() {
	defer untrackChild(c)
	select {
	case <-c.exited:
		return
	default:
	}
	_ = c.cmd.Process.Signal(os.Interrupt)
	select {
	case <-c.exited:
	case <-time.After(stopGrace):
		_ = c.cmd.Process.Kill()
		<-c.exited
	}
}

// kill ends the process at once; the watchdog and signal paths use it.
func (c *child) kill() {
	_ = c.cmd.Process.Kill()
	<-c.exited
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// procUsage is a process's CPU time and peak resident set so far.
type procUsage struct {
	cpu    time.Duration // user + system
	hwmKiB int64
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat times;
// it is 100 on every Linux architecture Go supports.
const clockTick = 100

// readUsage reads /proc/<pid>/stat and /proc/<pid>/status.
func readUsage(pid int) (procUsage, error) {
	var u procUsage
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return u, err
	}
	// The command name (field 2) is parenthesised and may contain
	// spaces; the numeric fields follow the last ')'.
	i := bytes.LastIndexByte(stat, ')')
	fields := strings.Fields(string(stat[i+1:]))
	if i < 0 || len(fields) < 13 {
		return u, fmt.Errorf("unparseable /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64) // field 14
	stime, err2 := strconv.ParseInt(fields[12], 10, 64) // field 15
	if err1 != nil || err2 != nil {
		return u, fmt.Errorf("unparseable /proc/%d/stat times", pid)
	}
	u.cpu = time.Duration(utime+stime) * time.Second / clockTick

	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return u, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				u.hwmKiB, _ = strconv.ParseInt(f[0], 10, 64)
			}
		}
	}
	if u.hwmKiB == 0 {
		return u, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
	}
	return u, nil
}
