package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer was created; the whole traced topology lives in one
// process, so every span reads the same monotonic clock.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`        // index of the causing span, -1 for a root
	Req    uint64 `json:"req,omitempty"` // request id, where the seam can know it
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer collects spans in memory. The benchmark wraps the seams it can
// reach from outside the program; each wrapper costs one atomic load
// while the tracer is off, which is how the untraced comparison phase of
// the traced run is taken on the very same topology.
type tracer struct {
	on   atomic.Bool
	t0   time.Time
	reqs atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// newReq allocates a request id (0 while tracing is off).
func (t *tracer) newReq() uint64 {
	if !t.on.Load() {
		return 0
	}
	return t.reqs.Add(1)
}

// begin opens a span and returns its handle (-1 while tracing is off).
func (t *tracer) begin(name string, req uint64) int {
	if !t.on.Load() {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: -1, Parent: -1, Req: req})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// reset drops every recorded span.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

// snapshot returns the finished spans with parents resolved.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	t.mu.Unlock()
	resolveParents(out)
	return out
}

// Span names are "<layer>:<detail>". The layers nest in this order along
// a request: the generator's client call, the gateway's HTTP handler,
// the OW2 client call, the OW2 server handler, and inside it the journal.
var layerDepth = map[string]int{
	"loadgen":  0,
	"gateway":  1,
	"coalesce": 1, // RemoteValidator called directly, in the coalescer side phase
	"rpc.call": 2,
	"handle":   3,
	"durable":  4,
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, ':'); i >= 0 {
		return name[:i]
	}
	return name
}

// opOf is the operation a span serves, where its name says: a gateway
// span names the endpoint, an OW2 span the method. Two paths run side by
// side in the churn phase (a reader's validate, a session's activate or
// revoke); the operation keeps a reader's OW2 call from being adopted by
// a session's gateway span that happens to enclose it in time.
func opOf(name string) string {
	for _, op := range []string{"validate", "activate", "revoke"} {
		if strings.Contains(name, op) {
			return op
		}
	}
	return ""
}

// resolveParents links each span to the span that caused it. Most seams
// cannot be told the request they serve (an rpc.Caller sees a service, a
// method and bytes), so causality is recovered from the clock: a span's
// parent is the innermost span of a shallower layer that encloses it in
// time and belongs neither to a different request nor to a different
// operation. The traced phases keep one request per path in flight,
// which makes that unambiguous.
// Spans are reordered by start time; indices refer to the new order.
func resolveParents(spans []span) {
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return layerDepth[layerOf(spans[i].Name)] < layerDepth[layerOf(spans[j].Name)]
	})
	var open []int // stack of spans that may still enclose later ones
	for i := range spans {
		s := &spans[i]
		for len(open) > 0 && spans[open[len(open)-1]].End < s.Start {
			open = open[:len(open)-1]
		}
		depth, known := layerDepth[layerOf(s.Name)]
		s.Parent = -1
		if known {
			for k := len(open) - 1; k >= 0; k-- {
				p := &spans[open[k]]
				pd, ok := layerDepth[layerOf(p.Name)]
				if !ok || pd >= depth || p.End < s.End {
					continue
				}
				if s.Req != 0 && p.Req != 0 && s.Req != p.Req {
					continue
				}
				if so, po := opOf(s.Name), opOf(p.Name); so != "" && po != "" && so != po {
					continue
				}
				s.Parent = open[k]
				if s.Req == 0 {
					s.Req = p.Req
				}
				break
			}
		}
		open = append(open, i)
	}
}

// selfTimes returns each span's self time: its duration minus the part
// of that interval its children cover. Children that overlap each other
// are subtracted once, and a child is only counted where it lies inside
// the parent.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// pathRow is one request's budget: its end-to-end time and, by layer,
// the self time (µs) and span count of its subtree.
type pathRow struct {
	Total float64
	Self  map[string]float64
	Calls map[string]int // spans per layer under this root
}

// pathRows returns one row per root span whose name has the prefix.
func pathRows(spans []span, rootPrefix string) []pathRow {
	self := selfTimes(spans)
	root := make([]int, len(spans)) // root index of each span
	rows := make(map[int]*pathRow)
	var order []int
	for i, s := range spans { // parents precede children in start order
		if s.Parent < 0 {
			root[i] = i
			if strings.HasPrefix(s.Name, rootPrefix) {
				rows[i] = &pathRow{Total: float64(s.dur()) / 1e3, Self: map[string]float64{}, Calls: map[string]int{}}
				order = append(order, i)
			}
		} else {
			root[i] = root[s.Parent]
		}
		if r := rows[root[i]]; r != nil {
			l := layerOf(s.Name)
			r.Self[l] += float64(self[i]) / 1e3
			r.Calls[l]++
		}
	}
	out := make([]pathRow, len(order))
	for k, i := range order {
		out[k] = *rows[i]
	}
	return out
}

// layerMedian is the median self time of one layer over the rows in
// which that layer ran, and how many rows those were.
func layerMedian(rows []pathRow, layer string) (float64, int) {
	var v []float64
	for _, r := range rows {
		if r.Calls[layer] > 0 {
			v = append(v, r.Self[layer])
		}
	}
	return median(v), len(v)
}

// sumRatio is the sum over layers of the median self time (zero where a
// layer did not run) divided by the median end-to-end time: how much of
// the blocking chain the layer budget accounts for.
func sumRatio(rows []pathRow) float64 {
	layers := map[string]bool{}
	totals := make([]float64, len(rows))
	for i, r := range rows {
		totals[i] = r.Total
		for l := range r.Self {
			layers[l] = true
		}
	}
	var sum float64
	for l := range layers {
		v := make([]float64, len(rows))
		for i, r := range rows {
			v[i] = r.Self[l]
		}
		sum += median(v)
	}
	return ratio(sum, median(totals))
}

// durations returns the durations (µs) of every span with the name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e3)
		}
	}
	return out
}

// writeTrace dumps the spans as JSON for offline reading.
func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
