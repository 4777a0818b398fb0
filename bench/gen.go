package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
)

// Workload names. Every later performance claim in this repository is
// made in these names and the metric names in BENCHMARK.json.
const (
	wlEdgeHot   = "edge_hot"
	wlEdgeCold  = "edge_cold"
	wlDirectOW2 = "direct_ow2"
	wlChurn     = "churn_revoke"
)

var workloadNames = []string{wlEdgeHot, wlEdgeCold, wlDirectOW2, wlChurn}

// The two policies every workload runs against. files.reader depends on
// login.user through a membership rule (keep [1]), so revoking the
// login.user record cascades to the dependent files.reader record.
const (
	loginPolicy = "login.user(U) <- env registered(U).\n"
	filesPolicy = "files.reader(U) <- login.user(U), env registered(U) keep [1].\n"
)

// scale sizes one run. The ratios are the issue's (population : edge
// cache : hot set = 64 : 8 : 1); the absolute sizes are cut so that a
// whole run — several set-ups, the measured phases and the restarts —
// fits the driver's per-run budget (see README, "Scale").
type scale struct {
	Principals int // live population, each holding login.user + files.reader
	Hot        int // edge_hot working set; fits the edge cache
	CacheMax   int // oasisgw -cache-max
	Revoked    int // principals activated and revoked during set-up
	Tampered   int // live RMCs copied with one signature byte flipped
	Churn      int // fresh principals reserved for session scripts
	Setups     int // set-ups per run; setup_s is their median
	Restarts   int // kill -9 / restart rounds; recover_s is their median
	Sample     int // revoked and live serials re-checked after each restart
}

var (
	fullScale  = scale{Principals: 8192, Hot: 128, CacheMax: 1024, Revoked: 128, Tampered: 64, Churn: 4800, Setups: 3, Restarts: 5, Sample: 100}
	quickScale = scale{Principals: 1024, Hot: 16, CacheMax: 128, Revoked: 32, Tampered: 16, Churn: 512, Setups: 1, Restarts: 1, Sample: 20}
)

// class is the expected verdict of one validation request.
type class uint8

const (
	classLive     class = iota // expect valid
	classRevoked               // revoked at set-up: expect valid:false
	classTampered              // flipped signature byte: expect refusal
)

// pick is one generated validation request: which certificate to present
// and the verdict the checker demands.
type pick struct {
	Class class
	Index uint32 // into the live, revoked or tampered set, by Class
}

// population is the generated principal set. All names derive from the
// seed, so the facts file, the journal and every wire body do too.
type population struct {
	Live    []string // Principals names
	Revoked []string // Revoked names
	Churn   []string // Churn names, consumed one per session script
}

func newRand(seed uint64, stream string) *rand.Rand {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(stream); i++ {
		h = (h ^ uint64(stream[i])) * 1099511628211
	}
	return rand.New(rand.NewPCG(seed, h))
}

// genPopulation derives the principal names from the seed.
func genPopulation(seed uint64, sc scale) population {
	r := newRand(seed, "population")
	n := 0
	name := func() string {
		n++
		return fmt.Sprintf("u%06x%05x", r.Uint32()&0xffffff, n)
	}
	fill := func(k int) []string {
		out := make([]string, k)
		for i := range out {
			out[i] = name()
		}
		return out
	}
	return population{Live: fill(sc.Principals), Revoked: fill(sc.Revoked), Churn: fill(sc.Churn)}
}

// factsFile renders the population as an oasisd -facts file.
func (p population) factsFile() []byte {
	var b bytes.Buffer
	for _, set := range [][]string{p.Live, p.Revoked, p.Churn} {
		for _, u := range set {
			b.WriteString("registered ")
			b.WriteString(u)
			b.WriteByte('\n')
		}
	}
	return b.Bytes()
}

// principalID is the session principal a certificate is bound to.
func principalID(name string) string { return "sess-" + name }

// readShape is the read traffic of a workload: which principals the
// validate mix draws from.
type readShape uint8

const (
	shapeHot  readShape = iota // uniform over the Hot set
	shapeScan                  // cyclic scan over all principals
	shapeAll                   // uniform over all principals
)

func shapeOf(workload string) readShape {
	switch workload {
	case wlEdgeCold:
		return shapeScan
	case wlDirectOW2:
		return shapeAll
	default: // edge_hot, and churn_revoke's concurrent read mix
		return shapeHot
	}
}

// genPicks generates a workload's validation requests: 98.9% live, 1%
// known-revoked, 0.1% tampered. Live picks follow the workload's shape;
// the scan's start and stride come from the seed.
func genPicks(seed uint64, workload string, n int, sc scale) []pick {
	r := newRand(seed, "picks/"+workload)
	shape := shapeOf(workload)
	pos := r.IntN(sc.Principals)
	stride := 2*r.IntN(sc.Principals/2) + 1 // odd, so coprime with the power-of-two population
	out := make([]pick, n)
	for i := range out {
		switch k := r.IntN(1000); {
		case k == 0:
			out[i] = pick{classTampered, uint32(r.IntN(sc.Tampered))}
		case k <= 10:
			out[i] = pick{classRevoked, uint32(r.IntN(sc.Revoked))}
		default:
			var idx int
			switch shape {
			case shapeHot:
				idx = r.IntN(sc.Hot)
			case shapeAll:
				idx = r.IntN(sc.Principals)
			case shapeScan:
				idx = pos
				pos = (pos + stride) % sc.Principals
			}
			out[i] = pick{classLive, uint32(idx)}
		}
	}
	return out
}
