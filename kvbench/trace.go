package main

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"pdcedu/internal/csnet"
	"pdcedu/internal/store"
)

// span is one timed call across a layer boundary. Times are
// nanoseconds on the tracer's monotonic clock.
type span struct {
	start, end int64
	wait       int64 // server spans: Request.QueueWait, ending at start
	key        int32 // benchmark key index, -1 for any other key
	node       int16 // backend index (server, engine) or caller (coordinator)
	get        bool
}

// spanLog is a fixed-capacity, append-only span buffer shared by
// concurrent recorders. Spans stay in memory until the window ends; a
// full log counts what it dropped and the run fails.
type spanLog struct {
	n       atomic.Int64
	buf     []span
	dropped atomic.Int64
}

func newSpanLog(capacity int) *spanLog { return &spanLog{buf: make([]span, capacity)} }

func (l *spanLog) add(s span) {
	i := l.n.Add(1) - 1
	if i >= int64(len(l.buf)) {
		l.dropped.Add(1)
		return
	}
	l.buf[i] = s
}

func (l *spanLog) spans() []span {
	n := l.n.Load()
	if n > int64(len(l.buf)) {
		n = int64(len(l.buf))
	}
	return l.buf[:n]
}

// tracer holds the spans of the three boundaries the traced run times:
// Cluster.Get/Set (recorded by the callers), csnet.Handler.Serve and
// store.Engine calls.
type tracer struct {
	base        time.Time
	coord       *spanLog
	server      *spanLog
	engine      *spanLog
	engineOther atomic.Int64 // engine calls without a key (Digest, Len, ...)
}

func newTracer() *tracer {
	t := &tracer{base: time.Now()}
	t.restart(0, 0)
	return t
}

// restart empties the logs and sizes each for ops operations at the
// rate of spans per operation it saw over the last seen operations.
// Call it only while no load runs.
func (t *tracer) restart(ops int, seen uint64) {
	size := func(l *spanLog) *spanLog {
		if l == nil || seen == 0 {
			return newSpanLog(0)
		}
		return newSpanLog(int(float64(l.n.Load())/float64(seen)*float64(ops)) + 4096)
	}
	t.coord, t.server, t.engine = size(t.coord), size(t.server), size(t.engine)
	t.engineOther.Store(0)
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) dropped() int64 {
	return t.coord.dropped.Load() + t.server.dropped.Load() + t.engine.dropped.Load()
}

func spanKey(k string) int32 {
	if i, ok := keyIndex(k); ok {
		return int32(i)
	}
	return -1
}

// timedHandler wraps a backend's csnet.Handler. Its span starts at
// handler start minus the request's queue wait, so it covers the time
// the frame sat in the server's worker queue.
type timedHandler struct {
	h    csnet.Handler
	t    *tracer
	node int16
}

func (th *timedHandler) Serve(req csnet.Request) csnet.Response {
	t0 := th.t.now()
	resp := th.h.Serve(req)
	th.t.server.add(span{start: t0, end: th.t.now(), wait: int64(req.QueueWait), key: spanKey(req.Key), node: th.node,
		get: req.Op == csnet.OpGetV || req.Op == csnet.OpGet})
	return resp
}

// timedEngine wraps a store.Engine. It forwards Err, because
// csnet.NewKVHandlerOn type-asserts it to arm the handler's
// ack-durable check: a wrapper hiding it would measure a handler that
// acks writes a poisoned WAL dropped.
type timedEngine struct {
	e    store.Engine
	t    *tracer
	node int16
}

var _ store.Engine = (*timedEngine)(nil)

func (te *timedEngine) rec(key string, t0 int64, get bool) {
	te.t.engine.add(span{start: t0, end: te.t.now(), key: spanKey(key), node: te.node, get: get})
}

func (te *timedEngine) Err() error {
	if d, ok := te.e.(interface{ Err() error }); ok {
		return d.Err()
	}
	return nil
}

func (te *timedEngine) Get(key string) (store.Entry, bool) {
	t0 := te.t.now()
	e, ok := te.e.Get(key)
	te.rec(key, t0, true)
	return e, ok
}

func (te *timedEngine) Load(key string) (store.Entry, bool) {
	t0 := te.t.now()
	e, ok := te.e.Load(key)
	te.rec(key, t0, true)
	return e, ok
}

func (te *timedEngine) Set(key string, value []byte, ttl time.Duration) uint64 {
	t0 := te.t.now()
	v := te.e.Set(key, value, ttl)
	te.rec(key, t0, false)
	return v
}

func (te *timedEngine) SetIfAbsent(key string, value []byte) (uint64, bool) {
	t0 := te.t.now()
	v, ok := te.e.SetIfAbsent(key, value)
	te.rec(key, t0, false)
	return v, ok
}

func (te *timedEngine) Delete(key string) (uint64, bool) {
	t0 := te.t.now()
	v, ok := te.e.Delete(key)
	te.rec(key, t0, false)
	return v, ok
}

func (te *timedEngine) Merge(key string, e store.Entry) (uint64, bool) {
	t0 := te.t.now()
	v, ok := te.e.Merge(key, e)
	te.rec(key, t0, false)
	return v, ok
}

func (te *timedEngine) Purge(key string) bool {
	t0 := te.t.now()
	ok := te.e.Purge(key)
	te.rec(key, t0, false)
	return ok
}

func (te *timedEngine) Keys() []string {
	te.t.engineOther.Add(1)
	return te.e.Keys()
}

func (te *timedEngine) Range(fn func(string, store.Entry) bool) {
	te.t.engineOther.Add(1)
	te.e.Range(fn)
}

func (te *timedEngine) RangeBucket(b int, fn func(string, store.Entry) bool) {
	te.t.engineOther.Add(1)
	te.e.RangeBucket(b, fn)
}

func (te *timedEngine) Digest() *store.Digest {
	te.t.engineOther.Add(1)
	return te.e.Digest()
}

func (te *timedEngine) Len() int {
	te.t.engineOther.Add(1)
	return te.e.Len()
}

func (te *timedEngine) Sweep(limit int) (int, int) {
	te.t.engineOther.Add(1)
	return te.e.Sweep(limit)
}

// Clock is how the handler stamps versions, not a storage call, so it
// is neither timed nor counted.
func (te *timedEngine) Clock() *store.Clock { return te.e.Clock() }

// traceReport is what the spans of one traced window add up to.
type traceReport struct {
	coordOps             int
	getUs, setUs         mean
	uncoveredUs          float64 // summed over coordinator spans
	queueWaitUs          []float64
	serveUs, selfUs      mean
	engineUs             []float64
	engineCalls          int64
	ambiguous, unlinked  int
	reconcileResidualPct float64
}

type mean struct {
	sum float64
	n   int
}

func (m *mean) add(v float64) { m.sum += v; m.n++ }

func (m mean) value() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

// reconcileTolerancePct bounds how far the coordinator time may differ
// from the sum of the parts the sweep attributes it to.
const reconcileTolerancePct = 1.0

// analyze links each span to the span that caused it and derives self
// times. A child is linked to a parent with the same key (and, for
// engine spans, the same backend) whose interval contains it; a child
// with two or more such parents is ambiguous and left unlinked.
//
// Each coordinator span is then swept over its linked server spans and
// their engine spans: every instant goes to the deepest layer active
// then (engine, else KV handler, else server queue), or to the
// coordinator itself when no server span covers it. The reconciliation
// compares the coordinator time measured by the callers with the sum
// of those parts; a residual means a linked child extends outside its
// parent or time was lost or counted twice.
func (t *tracer) analyze(coordinated bool) (traceReport, error) {
	var r traceReport
	coord, server, engine := t.coord.spans(), t.server.spans(), t.engine.spans()
	r.engineCalls = int64(len(engine)) + t.engineOther.Load()

	// Engine spans -> server spans (same backend and key, inside the
	// handler's own interval).
	srvIdx := newSpanIndex(server, func(s span) (int64, int64) { return s.start, s.end }, func(s span) int64 {
		return int64(s.node)<<32 | int64(uint32(s.key))
	})
	engTime := make([]int64, len(server))
	engOf := make([][]int32, len(server))
	for i, e := range engine {
		p, n := srvIdx.parent(int64(e.node)<<32|int64(uint32(e.key)), e.start, e.end)
		switch {
		case n == 1:
			engTime[p] += e.end - e.start
			if coordinated {
				engOf[p] = append(engOf[p], int32(i))
			}
		case n > 1:
			r.ambiguous++
		default:
			r.unlinked++
		}
		r.engineUs = append(r.engineUs, us(e.end-e.start))
	}
	for i, s := range server {
		r.queueWaitUs = append(r.queueWaitUs, us(s.wait))
		r.serveUs.add(us(s.end - s.start))
		r.selfUs.add(us(s.end - s.start - engTime[i]))
	}
	if !coordinated {
		return r, nil
	}

	// Server spans -> coordinator spans (same key, whole server span
	// including its queue wait inside the coordinator call).
	coIdx := newSpanIndex(coord, func(s span) (int64, int64) { return s.start, s.end }, func(s span) int64 { return int64(s.key) })
	kids := make([][]int32, len(coord))
	for i, s := range server {
		p, n := coIdx.parent(int64(s.key), s.start-s.wait, s.end)
		switch {
		case n == 1:
			kids[p] = append(kids[p], int32(i))
		case n > 1:
			r.ambiguous++
		default:
			r.unlinked++
		}
	}
	var total, parts int64
	for i, c := range coord {
		d := c.end - c.start
		if c.get {
			r.getUs.add(us(d))
		} else {
			r.setUs.add(us(d))
		}
		var segs []segment
		for _, k := range kids[i] {
			s := server[k]
			segs = append(segs, segment{s.start - s.wait, s.start, layerQueue}, segment{s.start, s.end, layerHandler})
			for _, e := range engOf[k] {
				segs = append(segs, segment{engine[e].start, engine[e].end, layerEngine})
			}
		}
		byLayer := sweep(c.start, c.end, segs)
		r.uncoveredUs += us(byLayer[layerNone])
		total += d
		for _, v := range byLayer {
			parts += v
		}
	}
	r.coordOps = len(coord)
	if total > 0 {
		r.reconcileResidualPct = 100 * float64(abs(total-parts)) / float64(total)
		if r.reconcileResidualPct > reconcileTolerancePct {
			return r, fmt.Errorf("trace reconciliation: coordinator spans sum to %dns but their parts to %dns (%.3f%% > %.1f%%)",
				total, parts, r.reconcileResidualPct, reconcileTolerancePct)
		}
	}
	return r, nil
}

const (
	layerNone = iota
	layerQueue
	layerHandler
	layerEngine
	numLayers
)

type segment struct {
	start, end int64
	layer      int
}

// sweep splits [lo, hi) at every segment boundary and credits each
// piece to the deepest layer of the segments covering it. Segments are
// not clipped: a piece outside [lo, hi) is credited too, which is what
// makes a child that leaks past its parent show as a residual.
func sweep(lo, hi int64, segs []segment) [numLayers]int64 {
	var out [numLayers]int64
	pts := []int64{lo, hi}
	for _, s := range segs {
		pts = append(pts, s.start, s.end)
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i] < pts[j] })
	for i := 0; i+1 < len(pts); i++ {
		a, b := pts[i], pts[i+1]
		if a == b {
			continue
		}
		layer, covered := layerNone, a >= lo && b <= hi
		for _, s := range segs {
			if s.start <= a && s.end >= b {
				covered = true
				if s.layer > layer {
					layer = s.layer
				}
			}
		}
		if covered {
			out[layer] += b - a
		}
	}
	return out
}

// spanIndex finds the parents containing an interval among spans of
// the same group: spans are sorted by start within a group, and a
// running maximum of their ends bounds the backward scan.
type spanIndex struct {
	groups map[int64][]int32
	starts []int64
	ends   []int64
	maxEnd []int64 // max end over the group's list up to this span
}

func newSpanIndex(spans []span, iv func(span) (int64, int64), group func(span) int64) *spanIndex {
	x := &spanIndex{groups: map[int64][]int32{}, starts: make([]int64, len(spans)), ends: make([]int64, len(spans)),
		maxEnd: make([]int64, len(spans))}
	for i, s := range spans {
		x.starts[i], x.ends[i] = iv(s)
		g := group(s)
		x.groups[g] = append(x.groups[g], int32(i))
	}
	for _, list := range x.groups {
		sort.Slice(list, func(a, b int) bool { return x.starts[list[a]] < x.starts[list[b]] })
		var m int64
		for _, i := range list {
			if x.ends[i] > m {
				m = x.ends[i]
			}
			x.maxEnd[i] = m
		}
	}
	return x
}

// parent returns a span containing [start, end] in group g and how
// many do.
func (x *spanIndex) parent(g, start, end int64) (int32, int) {
	list := x.groups[g]
	j := sort.Search(len(list), func(k int) bool { return x.starts[list[k]] > start }) - 1
	found, n := int32(-1), 0
	for ; j >= 0 && x.maxEnd[list[j]] >= end; j-- {
		if i := list[j]; x.ends[i] >= end {
			found = i
			n++
		}
	}
	return found, n
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

func abs(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
