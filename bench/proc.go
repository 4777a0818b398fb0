package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/rpc"
)

// buildDir is where the daemons are built, relative to the checkout
// root. It matches the driver's CARGO_TARGET_DIR convention so one
// ignore rule covers every language's benchmark.
const buildDir = ".bench_build"

// childProcs is the GOMAXPROCS every child is pinned to (= nproc here).
const childProcs = 2

// harness owns every OS process and scratch directory a run creates, so
// that one call — from the normal exit path, a failure, a signal or a
// recovered panic — leaves nothing behind.
type harness struct {
	outDir string // bench/out/<workload>: child logs, scratch state dirs

	mu    sync.Mutex
	procs []*proc
	dirs  []string
	dead  bool // cleanup has run; refuse new children
}

// proc is one child process with its log file.
type proc struct {
	name string
	cmd  *exec.Cmd
	done chan struct{} // closed once Wait has returned
}

func newHarness(outDir string) (*harness, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	// A run killed with SIGKILL cannot clean up; its leftovers are
	// removed by the next run of the same workload.
	stale, _ := filepath.Glob(filepath.Join(outDir, "state-*"))
	for _, d := range stale {
		os.RemoveAll(d) //nolint:errcheck // best effort
	}
	return &harness{outDir: outDir}, nil
}

// buildDaemons compiles oasisd and oasisgw from the checkout's source.
func buildDaemons() (binDir string, err error) {
	binDir, err = filepath.Abs(filepath.Join(buildDir, "bin"))
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", binDir+string(os.PathSeparator), "./cmd/oasisd", "./cmd/oasisgw")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build daemons: %v\n%s", err, out)
	}
	return binDir, nil
}

// tempDir creates a scratch directory under outDir that cleanup removes.
func (h *harness) tempDir(pattern string) (string, error) {
	d, err := os.MkdirTemp(h.outDir, pattern)
	if err != nil {
		return "", err
	}
	abs, err := filepath.Abs(d)
	if err != nil {
		return "", err
	}
	h.mu.Lock()
	h.dirs = append(h.dirs, abs)
	h.mu.Unlock()
	return abs, nil
}

// start launches a child with stdout and stderr captured to
// outDir/<name>.log (appended, so a restarted leader keeps one log).
func (h *harness) start(name, bin string, args ...string) (*proc, error) {
	logf, err := os.OpenFile(filepath.Join(h.outDir, name+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(childProcs))
	// If the generator dies without running cleanup (SIGKILL), the kernel
	// takes the children with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.dead {
		logf.Close()
		return nil, errors.New("harness already cleaned up")
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, done: make(chan struct{})}
	go func() {
		cmd.Wait() //nolint:errcheck // children are killed, not asked to exit
		logf.Close()
		close(p.done)
	}()
	h.procs = append(h.procs, p)
	return p, nil
}

// kill sends SIGKILL and waits until the process has been reaped. State
// directories are scratch, so no child is ever asked to shut down
// cleanly: kill -9 is also what the recovery rounds measure.
func (p *proc) kill() {
	p.cmd.Process.Kill() //nolint:errcheck // already exited
	<-p.done
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// cleanup kills and reaps every child and removes every scratch
// directory. It is idempotent and safe from any goroutine.
func (h *harness) cleanup() {
	h.mu.Lock()
	h.dead = true
	procs, dirs := h.procs, h.dirs
	h.procs, h.dirs = nil, nil
	h.mu.Unlock()
	for _, p := range procs {
		p.kill()
	}
	for _, d := range dirs {
		os.RemoveAll(d) //nolint:errcheck // best effort; next run sweeps state-*
	}
}

// guard runs fn with the harness cleaned up on return, on panic (which is
// re-raised afterwards) and on SIGINT/SIGTERM (which exit 130).
func (h *harness) guard(fn func() error) error {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	stop := make(chan struct{})
	go func() {
		select {
		case <-sig:
			h.cleanup()
			os.Exit(130)
		case <-stop:
		}
	}()
	defer func() {
		signal.Stop(sig)
		close(stop)
		h.cleanup()
	}()
	return fn()
}

// freeAddrs asks the kernel for n unused loopback addresses. All n
// listeners are held open until the last one is bound, so the addresses
// are distinct; they are free again once this returns.
func freeAddrs(n int) ([]string, error) {
	out := make([]string, n)
	for i := range out {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		out[i] = ln.Addr().String()
	}
	return out, nil
}

// readyTimeout bounds every readiness wait; a child that is not up by
// then has failed and its log says why.
const readyTimeout = 20 * time.Second

// pollEvery is the readiness probe period. Probing is the readiness
// protocol; nothing in the benchmark sleeps for a fixed settle time.
const pollEvery = 2 * time.Millisecond

// waitUntil polls cond until it holds, the process (if any) exits, or
// readyTimeout passes.
func waitUntil(what string, p *proc, cond func() bool) error {
	deadline := time.Now().Add(readyTimeout)
	for !cond() {
		if p != nil && p.exited() {
			return fmt.Errorf("%s: %s exited (see its log)", what, p.name)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: not ready after %v", what, readyTimeout)
		}
		time.Sleep(pollEvery)
	}
	return nil
}

// httpOK reports whether GET url answers 200.
func httpOK(url string) bool {
	resp, err := probeClient.Get(url)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// ow2Ping reports whether an OW2 listener at addr completes a call. Any
// answer from a handler — including "unknown service" — proves the
// listener, the framing and the dispatch loop are up.
func ow2Ping(addr string) bool {
	c, err := rpc.DialTCP(addr, time.Second)
	if err != nil {
		return false
	}
	defer c.Close()
	_, err = c.Call("_bench", "ping", nil)
	return err == nil || !rpc.IsUnavailable(err)
}

// procCPU returns the user+system CPU time a process has consumed, from
// /proc/<pid>/stat (clock ticks; the kernel's USER_HZ is 100 on Linux).
func procCPU(pid int) (time.Duration, error) {
	f, err := procStatFields(pid)
	if err != nil {
		return 0, err
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("pid %d: unparsable cpu fields", pid)
	}
	return time.Duration(utime+stime) * (time.Second / 100), nil
}

// procRSS returns a process's resident set size in bytes.
func procRSS(pid int) (int64, error) {
	f, err := procStatFields(pid)
	if err != nil {
		return 0, err
	}
	pages, err := strconv.ParseInt(f[21], 10, 64)
	if err != nil {
		return 0, err
	}
	return pages * int64(os.Getpagesize()), nil
}

// procStatFields returns the fields of /proc/<pid>/stat that follow the
// parenthesised command name (index 0 is field 3, the state).
func procStatFields(pid int) ([]string, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return nil, err
	}
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return nil, fmt.Errorf("pid %d: malformed stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 22 {
		return nil, fmt.Errorf("pid %d: short stat", pid)
	}
	return f, nil
}
