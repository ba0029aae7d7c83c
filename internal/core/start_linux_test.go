package core

import (
	"errors"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"syscall"
	"testing"

	"dpcache/internal/fragstore"
	"dpcache/internal/site"
)

// exhaustDescriptors leaves the process exactly spare free file descriptors
// and returns the call that gives the rest back.
func exhaustDescriptors(t *testing.T, spare int) (restore func()) {
	t.Helper()
	// The runtime's poller and the listen-backlog probe take descriptors on
	// first use; take them now.
	if ln, err := net.Listen("tcp", "127.0.0.1:0"); err == nil {
		ln.Close()
	}
	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &old); err != nil {
		t.Skipf("getrlimit: %v", err)
	}
	highest := 0
	for _, fd := range openDescriptors(t) {
		highest = max(highest, fd)
	}
	low := old
	low.Cur = uint64(highest) + 64
	if low.Cur >= old.Cur {
		t.Skipf("descriptor limit %d is already too low to lower", old.Cur)
	}
	if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &low); err != nil {
		t.Skipf("setrlimit: %v", err)
	}
	var held []*os.File
	for {
		f, err := os.Open(os.DevNull)
		if err != nil {
			break
		}
		held = append(held, f)
	}
	for _, f := range held[len(held)-spare:] {
		f.Close()
	}
	held = held[:len(held)-spare]
	return func() {
		for _, f := range held {
			f.Close()
		}
		_ = syscall.Setrlimit(syscall.RLIMIT_NOFILE, &old)
	}
}

// openDescriptors lists the process's open descriptor numbers.
func openDescriptors(t *testing.T) []int {
	t.Helper()
	names, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	var fds []int
	for _, n := range names {
		if fd, err := strconv.Atoi(n.Name()); err == nil {
			fds = append(fds, fd)
		}
	}
	return fds
}

// holdsOpen reports whether any descriptor of the process is open on path.
func holdsOpen(t *testing.T, path string) bool {
	t.Helper()
	for _, fd := range openDescriptors(t) {
		if target, err := os.Readlink("/proc/self/fd/" + strconv.Itoa(fd)); err == nil && target == path {
			return true
		}
	}
	return false
}

// A Start that fails at the proxy's listener — after the front store has
// opened its heap file — must close the file again, and leave the system
// startable.
func TestFailedStartClosesTheHeapFile(t *testing.T) {
	dir := t.TempDir()
	sys, err := NewSystem(Config{
		Capacity: 256,
		DiskDir:  dir,
		Store:    fragstore.Config{Backend: fragstore.BackendTiered, ByteBudget: 1 << 20, Eviction: "lru"},
	}, ModeCached)
	if err != nil {
		t.Fatal(err)
	}
	sc, _, err := site.BuildSynthetic(site.DefaultSynthetic(), sys.Repo)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Register(sc); err != nil {
		t.Fatal(err)
	}
	heap := filepath.Join(dir, "front.heap")

	// Two descriptors: the origin's listener and the heap file. The proxy's
	// listener is the third.
	restore := exhaustDescriptors(t, 2)
	err = sys.Start()
	restore()
	if err == nil {
		_ = sys.Close()
		t.Skip("Start found a third descriptor: something else in the process freed one")
	}
	if !errors.Is(err, syscall.EMFILE) {
		t.Fatalf("Start failed with %v, want EMFILE", err)
	}
	if _, statErr := os.Stat(heap); statErr != nil {
		t.Skipf("Start failed before the store opened its heap file (%v): the descriptor count above is stale", err)
	}
	if holdsOpen(t, heap) {
		t.Fatal("a failed Start left the heap file open")
	}
	if err := sys.Start(); err != nil {
		t.Fatalf("Start after a failed Start: %v", err)
	}
	if !holdsOpen(t, heap) {
		t.Fatal("the check above cannot see an open heap file")
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
}
