package main

import (
	"bytes"
	"reflect"
	"testing"
)

// The generator is a pure function of the seed: the same seed gives a
// byte-identical facts file and request sequence, another seed does not.
func TestGeneratorIsPureFunctionOfSeed(t *testing.T) {
	for _, sc := range []scale{quickScale, fullScale} {
		a, b := genPopulation(7, sc), genPopulation(7, sc)
		if !bytes.Equal(a.factsFile(), b.factsFile()) {
			t.Fatal("same seed, different facts file")
		}
		if bytes.Equal(a.factsFile(), genPopulation(8, sc).factsFile()) {
			t.Fatal("different seeds, same facts file")
		}
		if got, want := len(a.Live)+len(a.Revoked)+len(a.Churn), sc.Principals+sc.Revoked+sc.Churn; got != want {
			t.Fatalf("population of %d, want %d", got, want)
		}
		if got := bytes.Count(a.factsFile(), []byte("\n")); got != sc.Principals+sc.Revoked+sc.Churn {
			t.Fatalf("facts file has %d lines", got)
		}
		for _, wl := range workloadNames {
			p, q := genPicks(7, wl, 5000, sc), genPicks(7, wl, 5000, sc)
			if !reflect.DeepEqual(p, q) {
				t.Fatalf("%s: same seed, different request sequence", wl)
			}
			if reflect.DeepEqual(p, genPicks(8, wl, 5000, sc)) {
				t.Fatalf("%s: different seeds, same request sequence", wl)
			}
		}
	}
}

func TestPopulationNamesAreDistinct(t *testing.T) {
	p := genPopulation(3, fullScale)
	seen := map[string]bool{}
	for _, set := range [][]string{p.Live, p.Revoked, p.Churn} {
		for _, n := range set {
			if seen[n] {
				t.Fatalf("duplicate principal %s", n)
			}
			seen[n] = true
		}
	}
}

// The validate mix is 98.9% live, 1% known-revoked, 0.1% tampered, and
// every index is inside its set.
func TestPickMixAndBounds(t *testing.T) {
	sc := fullScale
	const n = 200000
	for _, wl := range workloadNames {
		var count [3]int
		for _, p := range genPicks(11, wl, n, sc) {
			count[p.Class]++
			limit := map[class]int{classLive: sc.Principals, classRevoked: sc.Revoked, classTampered: sc.Tampered}[p.Class]
			if shapeOf(wl) == shapeHot && p.Class == classLive {
				limit = sc.Hot
			}
			if int(p.Index) >= limit {
				t.Fatalf("%s: class %d index %d outside its set of %d", wl, p.Class, p.Index, limit)
			}
		}
		if r := float64(count[classRevoked]) / n; r < 0.008 || r > 0.012 {
			t.Errorf("%s: %.4f known-revoked, want about 0.010", wl, r)
		}
		if r := float64(count[classTampered]) / n; r < 0.0005 || r > 0.0015 {
			t.Errorf("%s: %.4f tampered, want about 0.001", wl, r)
		}
	}
}

// edge_cold's live picks are one cyclic scan: no principal comes round
// again before every other one has been presented, so an edge cache an
// eighth the size of the population can never hit.
func TestColdScanVisitsEveryPrincipalBeforeRepeating(t *testing.T) {
	sc := fullScale
	var live []uint32
	for _, p := range genPicks(5, wlEdgeCold, 3*sc.Principals, sc) {
		if p.Class == classLive {
			live = append(live, p.Index)
		}
	}
	if len(live) < 2*sc.Principals {
		t.Fatalf("only %d live picks", len(live))
	}
	seen := make(map[uint32]bool)
	for _, idx := range live[:sc.Principals] {
		if seen[idx] {
			t.Fatalf("principal %d repeated within one sweep", idx)
		}
		seen[idx] = true
	}
	for i := 0; i < sc.Principals; i++ {
		if live[i] != live[i+sc.Principals] {
			t.Fatalf("second sweep differs at %d", i)
		}
	}
}
