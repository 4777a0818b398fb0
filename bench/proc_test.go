package main

import (
	"errors"
	"os"
	"syscall"
	"testing"
	"time"
)

// childEnv makes the test binary act as a stand-in daemon: a process that
// starts and then never exits on its own, like oasisd and oasisgw.
const childEnv = "BENCH_TEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		time.Sleep(time.Hour)
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func alive(pid int) bool {
	err := syscall.Kill(pid, 0)
	return err == nil || errors.Is(err, syscall.EPERM)
}

func startStandIns(t *testing.T, h *harness) (pids []int, dir string) {
	t.Helper()
	t.Setenv(childEnv, "1")
	for _, name := range []string{"oasisd-standin", "oasisgw-standin"} {
		p, err := h.start(name, os.Args[0])
		if err != nil {
			t.Fatal(err)
		}
		pids = append(pids, p.cmd.Process.Pid)
	}
	dir, err := h.tempDir("state-test-")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir+"/wal", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, pid := range pids {
		if !alive(pid) {
			t.Fatalf("stand-in %d did not start", pid)
		}
	}
	return pids, dir
}

func assertNothingLeft(t *testing.T, pids []int, dir string) {
	t.Helper()
	for _, pid := range pids {
		if alive(pid) {
			t.Errorf("process %d survived", pid)
		}
	}
	if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("scratch state directory %s survived (err=%v)", dir, err)
	}
}

// A forced abort in the middle of a run — what the SIGINT/SIGTERM handler
// does — leaves no child process and no scratch directory behind.
func TestHarnessAbortLeavesNoProcessAndNoStateDir(t *testing.T) {
	h, err := newHarness(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pids, dir := startStandIns(t, h)
	h.cleanup()
	assertNothingLeft(t, pids, dir)
	h.cleanup() // idempotent
	if _, err := h.start("late", os.Args[0]); err == nil {
		t.Error("a cleaned-up harness must refuse new children")
	}
}

// The same holds when the run fails and when it panics.
func TestHarnessGuardCleansUpOnErrorAndPanic(t *testing.T) {
	h, err := newHarness(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var pids []int
	var dir string
	boom := errors.New("mid-run failure")
	if err := h.guard(func() error {
		pids, dir = startStandIns(t, h)
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("guard returned %v", err)
	}
	assertNothingLeft(t, pids, dir)

	h, err = newHarness(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the panic must be re-raised after cleanup")
			}
		}()
		h.guard(func() error { //nolint:errcheck // panics
			pids, dir = startStandIns(t, h)
			panic("mid-run panic")
		})
	}()
	assertNothingLeft(t, pids, dir)
}

// Child output goes to <out>/<name>.log.
func TestHarnessCapturesChildOutput(t *testing.T) {
	out := t.TempDir()
	h, err := newHarness(out)
	if err != nil {
		t.Fatal(err)
	}
	defer h.cleanup()
	p, err := h.start("echo", "/bin/sh", "-c", "echo to-stdout; echo to-stderr 1>&2")
	if err != nil {
		t.Fatal(err)
	}
	<-p.done
	b, err := os.ReadFile(out + "/echo.log")
	if err != nil {
		t.Fatal(err)
	}
	if got := string(b); got != "to-stdout\nto-stderr\n" {
		t.Errorf("log = %q", got)
	}
}

// Stale scratch directories of a run that was killed outright are swept
// by the next run of the same workload.
func TestNewHarnessSweepsStaleState(t *testing.T) {
	out := t.TempDir()
	stale := out + "/state-leader-123"
	if err := os.MkdirAll(stale, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := newHarness(out); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("stale directory survived: %v", err)
	}
}

func TestFreeAddrsAreDistinctAndUsable(t *testing.T) {
	addrs, err := freeAddrs(5)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, a := range addrs {
		if seen[a] {
			t.Errorf("address %s handed out twice", a)
		}
		seen[a] = true
	}
	if ow2Ping(addrs[0]) {
		t.Error("nothing listens there any more")
	}
}

func TestProcStatOfSelf(t *testing.T) {
	if _, err := procCPU(os.Getpid()); err != nil {
		t.Error(err)
	}
	if rss, err := procRSS(os.Getpid()); err != nil || rss <= 0 {
		t.Errorf("rss=%d err=%v", rss, err)
	}
}
