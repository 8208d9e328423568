package main

import (
	"context"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dlrmperf"
)

// span is one recorded interval around a call into a layer. Spans of
// one op share Op; Parent is the span that made the call (0 for the
// op's root).
type span struct {
	Op     int64  `json:"op"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, so untraced code paths pay one nil check.
type recorder struct {
	epoch  time.Time
	nextID atomic.Int64
	nextOp atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// active is an open span; end closes and records it.
type active struct {
	rec   *recorder
	op    int64
	id    int64
	par   int64
	name  string
	start int64
}

// newOp opens the root span of a fresh op.
func (r *recorder) newOp(name string) active {
	if r == nil {
		return active{}
	}
	return r.open(r.nextOp.Add(1), 0, name)
}

func (r *recorder) open(op, parent int64, name string) active {
	return active{rec: r, op: op, id: r.nextID.Add(1), par: parent, name: name,
		start: time.Since(r.epoch).Nanoseconds()}
}

// child opens a span caused by a.
func (a active) child(name string) active {
	if a.rec == nil {
		return active{}
	}
	return a.rec.open(a.op, a.id, name)
}

func (a active) end() {
	if a.rec == nil {
		return
	}
	s := span{Op: a.op, ID: a.id, Parent: a.par, Name: a.name, Start: a.start,
		End: time.Since(a.rec.epoch).Nanoseconds()}
	a.rec.mu.Lock()
	a.rec.spans = append(a.rec.spans, s)
	a.rec.mu.Unlock()
}

// timed runs f inside a child span of a.
func (a active) timed(name string, f func()) {
	s := a.child(name)
	f()
	s.end()
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// --- propagation across the in-process HTTP hops ----------------------------

type spanKey struct{}

// withSpan makes a the parent of spans opened from ctx.
func withSpan(ctx context.Context, a active) context.Context {
	if a.rec == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, a)
}

// fromCtx opens a child of the span carried by ctx, if any.
func fromCtx(ctx context.Context, name string) active {
	if a, ok := ctx.Value(spanKey{}).(active); ok {
		return a.child(name)
	}
	return active{}
}

const spanHeader = "X-Perfbench-Span"

// tracingTransport stamps the caller's op and span id on outgoing
// requests, so the server side can parent its spans under the call.
type tracingTransport struct{ base http.RoundTripper }

func (t tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if a, ok := req.Context().Value(spanKey{}).(active); ok && a.rec != nil {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.FormatInt(a.op, 10)+":"+strconv.FormatInt(a.id, 10))
	}
	return t.base.RoundTrip(req)
}

// traceHandler records a span named name around every request that
// arrives carrying a span header, and hands its span to the handler's
// context so calls the handler makes are parented under it.
func traceHandler(rec *recorder, name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, parent, ok := parseSpanHeader(r.Header.Get(spanHeader))
		if !ok {
			next.ServeHTTP(w, r)
			return
		}
		s := rec.open(op, parent, name)
		next.ServeHTTP(w, r.WithContext(withSpan(r.Context(), s)))
		s.end()
	})
}

func parseSpanHeader(h string) (op, parent int64, ok bool) {
	a, b, found := strings.Cut(h, ":")
	if !found {
		return 0, 0, false
	}
	op, err1 := strconv.ParseInt(a, 10, 64)
	parent, err2 := strconv.ParseInt(b, 10, 64)
	return op, parent, err1 == nil && err2 == nil
}

// tracedBackend records an "engine.predict" span around every call the
// serving layer makes into the engine.
type tracedBackend struct {
	*dlrmperf.Engine
}

func (b tracedBackend) PredictContext(ctx context.Context, req dlrmperf.PredictRequest) dlrmperf.PredictResult {
	s := fromCtx(ctx, "engine.predict")
	res := b.Engine.PredictContext(ctx, req)
	s.end()
	return res
}

// --- self time ---------------------------------------------------------------

// layerTime is one layer's aggregate over a set of ops.
type layerTime struct {
	Name   string  `json:"name"`
	Calls  int     `json:"calls"`
	SelfUs float64 `json:"self_us_per_op"`
	WallUs float64 `json:"wall_us_per_op"`
}

// selfTimes computes, per span name, the total span duration and the
// self time — each span's duration minus the part of its interval
// covered by its children — averaged over the ops present. Parallel
// children are merged before subtraction, so a parent is never charged
// a negative self time.
func selfTimes(spans []span) (rows []layerTime, ops int) {
	children := map[int64][]span{}
	opSet := map[int64]bool{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
		opSet[s.Op] = true
	}
	agg := map[string]*layerTime{}
	for _, s := range spans {
		lt := agg[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			agg[s.Name] = lt
		}
		lt.Calls++
		dur := float64(s.End - s.Start)
		lt.WallUs += dur / 1e3
		lt.SelfUs += (dur - float64(covered(s, children[s.ID]))) / 1e3
	}
	ops = len(opSet)
	for _, lt := range agg {
		if ops > 0 {
			lt.SelfUs /= float64(ops)
			lt.WallUs /= float64(ops)
		}
		rows = append(rows, *lt)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows, ops
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's interval.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

// layer returns the named row, or a zero row.
func layer(rows []layerTime, name string) layerTime {
	for _, r := range rows {
		if r.Name == name {
			return r
		}
	}
	return layerTime{Name: name}
}

// opDurationsUs returns the durations of the root spans named name.
func opDurationsUs(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Parent == 0 && s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}
