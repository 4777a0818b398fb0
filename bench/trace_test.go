package main

import (
	"math"
	"testing"
)

// Self time is the span's duration minus the part its children cover:
// children that overlap each other are subtracted once, and a child is
// only counted where it lies inside the parent.
func TestSelfTimeSubtractsOverlappingChildrenOnce(t *testing.T) {
	spans := []span{
		{Name: "gateway:/validate", Start: 0, End: 100, Parent: -1},
		{Name: "rpc.call:a", Start: 10, End: 50, Parent: 0},
		{Name: "rpc.call:b", Start: 30, End: 70, Parent: 0},  // overlaps a on [30,50]
		{Name: "rpc.call:c", Start: 90, End: 120, Parent: 0}, // sticks out past the parent
		{Name: "handle:x", Start: 35, End: 45, Parent: 2},    // grandchild: not the root's business
	}
	self := selfTimes(spans)
	// Covered: [10,70] = 60, plus [90,100] = 10. Self = 100 - 70.
	if self[0] != 30 {
		t.Errorf("parent self time = %d, want 30", self[0])
	}
	if self[1] != 40 {
		t.Errorf("childless span self time = %d, want its duration 40", self[1])
	}
	if self[2] != 30 {
		t.Errorf("span with one child: self = %d, want 40-10", self[2])
	}
	if self[4] != 10 {
		t.Errorf("leaf self = %d, want 10", self[4])
	}
}

// Parents are recovered from the clock: innermost enclosing span of a
// shallower layer, never across request ids or operations.
func TestResolveParentsByContainmentLayerRequestAndOperation(t *testing.T) {
	spans := []span{
		{Name: "handle:leader.files.validate_rmc", Start: 30, End: 40},
		{Name: "loadgen:validate", Start: 0, End: 100, Req: 1},
		{Name: "rpc.call:files.validate_rmc", Start: 20, End: 60},
		{Name: "gateway:/validate", Start: 10, End: 90, Req: 1},
		// A session's revoke running beside the read, enclosing part of it.
		{Name: "loadgen:revoke", Start: 5, End: 300, Req: 2},
		{Name: "gateway:/revoke", Start: 15, End: 290, Req: 2},
		{Name: "rpc.call:login.revoke", Start: 100, End: 280},
		{Name: "handle:leader.login.revoke", Start: 110, End: 270},
		{Name: "durable:append_wait", Start: 120, End: 260},
		{Name: "edgecache:handle_event", Start: 130, End: 131}, // no layer: stays a root
	}
	resolveParents(spans)
	byName := map[string]span{}
	index := map[string]int{}
	for i, s := range spans {
		byName[s.Name] = s
		index[s.Name] = i
	}
	parentOf := func(name string) string {
		p := byName[name].Parent
		if p < 0 {
			return ""
		}
		return spans[p].Name
	}
	for child, want := range map[string]string{
		"loadgen:validate":                 "",
		"gateway:/validate":                "loadgen:validate",
		"rpc.call:files.validate_rmc":      "gateway:/validate", // not gateway:/revoke, which also encloses it
		"handle:leader.files.validate_rmc": "rpc.call:files.validate_rmc",
		"loadgen:revoke":                   "",
		"gateway:/revoke":                  "loadgen:revoke",
		"rpc.call:login.revoke":            "gateway:/revoke",
		"handle:leader.login.revoke":       "rpc.call:login.revoke",
		"durable:append_wait":              "handle:leader.login.revoke",
		"edgecache:handle_event":           "",
	} {
		if got := parentOf(child); got != want {
			t.Errorf("parent of %s = %q, want %q", child, got, want)
		}
	}
	if got := byName["handle:leader.files.validate_rmc"].Req; got != 1 {
		t.Errorf("request id not inherited down the tree: %d", got)
	}
	for i, s := range spans {
		if s.Parent >= i {
			t.Errorf("span %d (%s) has parent %d: parents must precede children", i, s.Name, s.Parent)
		}
	}
}

// Per-request budgets: layer self times add up to the end-to-end time,
// and the sum ratio over medians is 1 when every request looks alike.
func TestPathRowsAndSumRatio(t *testing.T) {
	var spans []span
	for r := int64(0); r < 5; r++ {
		base := r * 1000
		spans = append(spans,
			span{Name: "loadgen:validate", Start: base, End: base + 200, Req: uint64(r + 1)},
			span{Name: "gateway:/validate", Start: base + 40, End: base + 160, Req: uint64(r + 1)},
			span{Name: "rpc.call:files.validate_rmc", Start: base + 60, End: base + 140},
			span{Name: "handle:leader.files.validate_rmc", Start: base + 90, End: base + 110},
		)
	}
	resolveParents(spans)
	rows := pathRows(spans, "loadgen:validate")
	if len(rows) != 5 {
		t.Fatalf("%d rows, want 5", len(rows))
	}
	want := map[string]float64{"loadgen": 0.080, "gateway": 0.040, "rpc.call": 0.060, "handle": 0.020}
	for layer, w := range want {
		got, n := layerMedian(rows, layer)
		if n != 5 || math.Abs(got-w) > 1e-9 {
			t.Errorf("%s: median self %.3fµs over %d rows, want %.3f over 5", layer, got, n, w)
		}
	}
	if got := sumRatio(rows); math.Abs(got-1) > 1e-9 {
		t.Errorf("sum ratio = %v, want 1", got)
	}
	if got, n := layerMedian(rows, "durable"); n != 0 || got != 0 {
		t.Errorf("a layer that never ran: %v over %d rows", got, n)
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	tr := newTracer()
	if id := tr.begin("x:y", tr.newReq()); id != -1 {
		t.Fatalf("tracer off: begin returned %d", id)
	}
	tr.end(-1)
	tr.on.Store(true)
	a := tr.begin("loadgen:validate", tr.newReq())
	b := tr.begin("gateway:/validate", 0)
	tr.end(b)
	tr.end(a)
	open := tr.begin("rpc.call:never.ends", 0)
	_ = open
	got := tr.snapshot()
	if len(got) != 2 {
		t.Fatalf("snapshot has %d spans, want the 2 finished ones", len(got))
	}
	if got[1].Parent != 0 {
		t.Errorf("gateway span's parent = %d, want 0", got[1].Parent)
	}
}
