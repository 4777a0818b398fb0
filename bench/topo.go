package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// topology is the running system under test as the load generator sees
// it: three tiers on loopback sockets. The untraced run starts them as
// OS processes (procTopology); the traced run assembles the same tiers
// in this process from the layers' public constructors (tracedTopology).
// Either way the generator only ever talks to the addresses below.
type topology struct {
	LeaderAddr   string // OW2, hosts login and files
	FollowerAddr string // OW2, read replica of the leader
	GatewayURL   string // http://host:port of the edge

	proc   *procTopology   // set in the untraced, multi-process run
	traced *tracedTopology // set in the traced, in-process run
}

// procTopology is the multi-process deployment: oasisd leader, oasisd
// follower and oasisgw, each its own OS process.
type procTopology struct {
	h         *harness
	binDir    string
	stateDir  string
	filesDir  string
	leaderObs string
	followObs string
	gwAddr    string
	leaderOW2 string

	leader, follower, gateway *proc
	firstExec                 time.Time
}

// probeClient is the HTTP client for readiness probes and scrapes, kept
// apart from the workers' clients so it never shares their connections.
var probeClient = &http.Client{Timeout: 2 * time.Second}

// startProcTopology writes the generated policy and facts files and
// launches leader, follower and gateway, returning once each answers its
// health endpoint and an OW2 ping.
func startProcTopology(h *harness, binDir string, pop population, sc scale) (*topology, error) {
	filesDir, err := h.tempDir("state-files-")
	if err != nil {
		return nil, err
	}
	stateDir, err := h.tempDir("state-leader-")
	if err != nil {
		return nil, err
	}
	for name, content := range map[string][]byte{
		"login.policy": []byte(loginPolicy),
		"files.policy": []byte(filesPolicy),
		"facts.txt":    pop.factsFile(),
	} {
		if err := os.WriteFile(filepath.Join(filesDir, name), content, 0o644); err != nil {
			return nil, err
		}
	}
	addrs, err := freeAddrs(5)
	if err != nil {
		return nil, err
	}
	pt := &procTopology{
		h: h, binDir: binDir, stateDir: stateDir, filesDir: filesDir,
		leaderOW2: addrs[0], leaderObs: addrs[1], followObs: addrs[3], gwAddr: addrs[4],
	}
	t := &topology{
		LeaderAddr:   addrs[0],
		FollowerAddr: addrs[2],
		GatewayURL:   "http://" + addrs[4],
		proc:         pt,
	}
	pt.firstExec = time.Now()
	if err := pt.startLeader(); err != nil {
		return nil, err
	}
	pt.follower, err = h.start("follower", filepath.Join(binDir, "oasisd"),
		"-addr", t.FollowerAddr, "-follow", t.LeaderAddr, "-obs-addr", pt.followObs)
	if err != nil {
		return nil, err
	}
	pt.gateway, err = h.start("gateway", filepath.Join(binDir, "oasisgw"),
		"-addr", pt.gwAddr, "-cache", "-cache-max", strconv.Itoa(sc.CacheMax),
		"-backend", "login="+t.LeaderAddr, "-backend", "files="+t.LeaderAddr)
	if err != nil {
		return nil, err
	}
	if err := waitUntil("follower", pt.follower, func() bool {
		return httpOK("http://"+pt.followObs+"/metrics") && ow2Ping(t.FollowerAddr)
	}); err != nil {
		return nil, err
	}
	if err := waitUntil("gateway", pt.gateway, func() bool {
		return httpOK(t.GatewayURL + "/healthz")
	}); err != nil {
		return nil, err
	}
	return t, nil
}

// execLeader (re)starts the leader on its fixed addresses and state
// directory without waiting for it.
func (pt *procTopology) execLeader() error {
	var err error
	pt.leader, err = pt.h.start("leader", filepath.Join(pt.binDir, "oasisd"),
		"-addr", pt.leaderOW2, "-obs-addr", pt.leaderObs, "-state-dir", pt.stateDir,
		"-svc", "login="+filepath.Join(pt.filesDir, "login.policy"),
		"-svc", "files="+filepath.Join(pt.filesDir, "files.policy"),
		"-facts", filepath.Join(pt.filesDir, "facts.txt"))
	return err
}

// startLeader starts the leader and waits until it is healthy.
func (pt *procTopology) startLeader() error {
	if err := pt.execLeader(); err != nil {
		return err
	}
	return waitUntil("leader", pt.leader, func() bool {
		return httpOK("http://"+pt.leaderObs+"/metrics") && ow2Ping(pt.leaderOW2)
	})
}

// serverCPU sums the CPU time of every server process.
func (pt *procTopology) serverCPU() (time.Duration, error) {
	var total time.Duration
	for _, p := range []*proc{pt.leader, pt.follower, pt.gateway} {
		d, err := procCPU(p.cmd.Process.Pid)
		if err != nil {
			return 0, fmt.Errorf("cpu of %s: %w", p.name, err)
		}
		total += d
	}
	return total, nil
}

// stop tears the topology down (kill -9; state is scratch).
func (t *topology) stop() {
	if t.proc != nil {
		for _, p := range []*proc{t.proc.gateway, t.proc.follower, t.proc.leader} {
			if p != nil {
				p.kill()
			}
		}
	}
	if t.traced != nil {
		t.traced.stop()
	}
}
