package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pdcedu/internal/csnet"
	"pdcedu/internal/obs"
)

// opCounts is what one caller saw. Latencies are exact per-op samples
// in nanoseconds, successful ops only.
type opCounts struct {
	gets, sets uint64 // successful
	failed     uint64 // errors, sheds, timeouts, partial writes
	wrong      uint64 // a read that missed or returned a value malformed for its key
	userBytes  uint64 // key+value bytes of successful sets
	getLat     []uint32
	setLat     []uint32
	marks      []mark // where the counts stood at the end of each slice
}

// mark is a caller's position at a slice boundary.
type mark struct {
	gets, sets int // latency samples so far
	failed     uint64
}

func (c *opCounts) ok() uint64 { return c.gets + c.sets }

// markUpTo records the boundaries of every slice before slice s.
func (c *opCounts) markUpTo(s int) {
	for len(c.marks) < s {
		c.marks = append(c.marks, mark{len(c.getLat), len(c.setLat), c.failed})
	}
}

func (c *opCounts) merge(o *opCounts) {
	c.gets += o.gets
	c.sets += o.sets
	c.failed += o.failed
	c.wrong += o.wrong
	c.userBytes += o.userBytes
	c.getLat = append(c.getLat, o.getLat...)
	c.setLat = append(c.setLat, o.setLat...)
}

func (c *opCounts) record(read bool, d time.Duration) {
	ns := d.Nanoseconds()
	if ns > 1<<32-1 {
		ns = 1<<32 - 1
	}
	if read {
		c.gets++
		c.getLat = append(c.getLat, uint32(ns))
	} else {
		c.sets++
		c.setLat = append(c.setLat, uint32(ns))
	}
}

// window is one measured stretch of closed-loop load.
type window struct {
	elapsed       time.Duration
	ops           opCounts
	slices        []sliceStat
	before, after procSample
	callers       int
	conns         int
	// snapshotCycles is how many times each durable shard snapshotted
	// in the window, on average.
	snapshotCycles float64
}

// loadGen runs closed-loop load against a system: nproc callers on the
// coordinator, or one pipelined sender/collector pair on a raw mux
// connection.
type loadGen struct {
	sys     *system
	keys    []string
	perm    []int
	seed    int64
	callers int
	tr      *tracer
	round   int // distinct picker streams for warm-up and window
}

func newLoadGen(sys *system, keys []string, perm []int, seed int64, tr *tracer) *loadGen {
	// The backends share this process, so the callers take half the
	// CPUs and leave the other half to the stack they drive.
	callers := max(1, runtime.NumCPU()/2)
	if !sys.w.coordinated() {
		callers = 1
	}
	return &loadGen{sys: sys, keys: keys, perm: perm, seed: seed, callers: callers, tr: tr}
}

// run drives load for d, split into equal slices, and returns each
// caller's counts with their slice marks and the process's usage at
// each slice boundary. While more reports true, the window grows by
// whole slices, up to maxStretch times d.
// capHint presizes the latency sample buffers so the window does not
// grow them.
func (dr *loadGen) run(d time.Duration, slices, capHint int, more func() bool) ([]*opCounts, []usage) {
	dr.round++
	var stop atomic.Bool
	var slice atomic.Int32
	var wg sync.WaitGroup
	out := make([]*opCounts, dr.callers)
	at := []usage{readUsage()}
	start := time.Now()
	for i := range out {
		w := dr.sys.w
		c := &opCounts{
			getLat: make([]uint32, 0, capHint*w.readPct/100/dr.callers+1024),
			setLat: make([]uint32, 0, capHint*(100-w.readPct)/100/dr.callers+1024),
			marks:  make([]mark, 0, slices),
		}
		out[i] = c
		p := newPicker(w, dr.seed*31+int64(dr.round), i, dr.perm)
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			if w.coordinated() {
				dr.callCluster(id, p, c, &stop, &slice)
			} else {
				dr.pipeline(p, c, &stop, &slice)
			}
		}(i)
	}
	step := d / time.Duration(slices)
	for i := 1; ; i++ {
		time.Sleep(time.Until(start.Add(step * time.Duration(i))))
		u := readUsage()
		if i >= slices && (more == nil || !more() || i >= maxStretch*slices) {
			break // the reading taken once the callers stop closes the last slice
		}
		at = append(at, u)
		slice.Store(int32(i))
	}
	stop.Store(true)
	wg.Wait()
	at = append(at, readUsage())
	for _, c := range out {
		c.markUpTo(len(at) - 1)
	}
	return out, at
}

func (dr *loadGen) span(start, end time.Time, ki, caller int, get bool) {
	if dr.tr != nil {
		dr.tr.coord.add(span{start: int64(start.Sub(dr.tr.base)), end: int64(end.Sub(dr.tr.base)), key: int32(ki), node: int16(caller), get: get})
	}
}

func (dr *loadGen) callCluster(id int, p *picker, c *opCounts, stop *atomic.Bool, slice *atomic.Int32) {
	cl, w := dr.sys.cluster, dr.sys.w
	var n uint64
	for !stop.Load() {
		c.markUpTo(int(slice.Load()))
		ki, read := p.next()
		key := dr.keys[ki]
		if read {
			start := time.Now()
			v, ok, err := cl.Get(key)
			end := time.Now()
			switch {
			case err != nil:
				c.failed++
				continue
			case !ok || !validValue(v, ki, w.valSize):
				c.wrong++
			}
			c.record(true, end.Sub(start))
			dr.span(start, end, ki, id, true)
			continue
		}
		// A fresh value per write: the coordinator's read cache keeps
		// the caller's slice.
		val := make([]byte, w.valSize)
		n++
		putValue(val, ki, seqOf(id+1, n))
		start := time.Now()
		err := cl.Set(key, val)
		end := time.Now()
		if err != nil {
			c.failed++
			continue
		}
		c.record(false, end.Sub(start))
		c.userBytes += uint64(len(key) + len(val))
		dr.span(start, end, ki, id, false)
	}
}

type flight struct {
	call  *csnet.Call
	start time.Time
	key   int
	read  bool
}

// pipeline keeps w.window requests in flight on the system's one mux
// connection: a sender issues a request whenever a slot is free, and a
// collector resolves responses in send order.
func (dr *loadGen) pipeline(p *picker, c *opCounts, stop *atomic.Bool, slice *atomic.Int32) {
	w, cl := dr.sys.w, dr.sys.client
	q := make(chan flight, w.window) // sized to the window: the sender never outruns it
	slots := make(chan struct{}, w.window)
	go func() {
		defer close(q)
		val := make([]byte, w.valSize) // Send encodes a copy, so one buffer serves every write
		var n uint64
		for !stop.Load() {
			slots <- struct{}{}
			ki, read := p.next()
			req := csnet.Request{Op: csnet.OpGetV, Key: dr.keys[ki]}
			if !read {
				n++
				putValue(val, ki, seqOf(1, n))
				req = csnet.Request{Op: csnet.OpSetV, Key: dr.keys[ki], Value: val}
			}
			start := time.Now()
			q <- flight{call: cl.Send(req), start: start, key: ki, read: read}
		}
	}()
	for f := range q {
		c.markUpTo(int(slice.Load()))
		resp, err := f.call.ResponseV()
		d := time.Since(f.start)
		<-slots
		switch {
		case err != nil || resp.Status == csnet.StatusBusy:
			c.failed++
			continue
		case f.read && (resp.Status != csnet.StatusOK || !validValue(resp.Value, f.key, w.valSize)):
			c.wrong++
		case !f.read && resp.Status != csnet.StatusOK:
			c.failed++
			continue
		}
		c.record(f.read, d)
		if !f.read {
			c.userBytes += uint64(len(dr.keys[f.key]) + w.valSize)
		}
	}
}

// durableShards counts the shards of the system's durable engines.
func (dr *loadGen) durableShards() int {
	n := 0
	for _, e := range dr.sys.durable {
		n += e.Shards()
	}
	return n
}

// snapshotsPending returns a predicate that holds until every shard of
// the system's durable engines has snapshotted minSnapshotCycles times
// since the call, so a run on a slow disk measures the same background
// cycles as a run on a fast one. It never holds without durable engines.
func (dr *loadGen) snapshotsPending() func() bool {
	shards := dr.durableShards()
	snaps := obs.Default().Counter("store.wal.snapshots")
	base := snaps.Value()
	return func() bool { return float64(snaps.Value()-base) < minSnapshotCycles*float64(shards) }
}

const (
	warmup = time.Second
	// sliceLen is the target length of the equal parts a window is
	// split into (at least minSlices of them); the end-to-end metrics
	// are interquartile means over the parts.
	sliceLen  = time.Second
	minSlices = 4
	// maxStretch bounds how far a window may grow past its length to
	// collect the durable workload's snapshot cycles.
	maxStretch = 2
	// quietSteal is the share of the machine's CPU time the hypervisor
	// may steal in a slice for the slice to count as quiet.
	quietSteal = 0.02
)

// measure warms the system up, then measures one window of d. The
// warm-up's throughput sizes the window's sample buffers.
func (dr *loadGen) measure(d time.Duration) (window, error) {
	runtime.GC()
	if dr.tr != nil {
		dr.tr.restart(0, 0)
	}
	var warm opCounts
	cs, _ := dr.run(warmup, 1, 0, nil)
	for _, c := range cs {
		warm.merge(c)
	}
	if warm.ok() == 0 {
		return window{}, errors.New("warm-up completed no operation")
	}
	// Room for a window stretched to its limit, so neither the sample
	// buffers nor the span logs grow or overflow inside it.
	capHint := int(float64(warm.ok())*d.Seconds()/warmup.Seconds()*maxStretch*1.2) + 4096
	if dr.tr != nil {
		dr.tr.restart(capHint, warm.ok())
	}
	obs.Default().Gauge("csnet.mux.pending.hw").Set(0)
	obs.Default().Gauge("csnet.server.queue_depth.hw").Set(0)
	win := window{callers: dr.callers}
	var err error
	if win.before, err = sampleProc(); err != nil {
		return window{}, err
	}
	start := time.Now()
	planned := max(minSlices, int(d/sliceLen))
	counts, at := dr.run(d, planned, capHint, dr.snapshotsPending())
	win.elapsed = time.Since(start)
	if win.after, err = sampleProc(); err != nil {
		return window{}, err
	}
	win.slices = sliceStats(counts, at)
	for _, c := range counts {
		win.ops.merge(c)
	}
	if shards := dr.durableShards(); shards > 0 {
		win.snapshotCycles = delta{win.before, win.after}.counter("store.wal.snapshots") / float64(shards)
	}
	if win.conns, err = clientConns(dr.sys.w.backends); err != nil {
		return window{}, err
	}
	if win.ops.wrong > 0 {
		return win, fmt.Errorf("%d reads missed or returned a value malformed for their key", win.ops.wrong)
	}
	for j, sl := range win.slices {
		if sl.ops == 0 {
			return win, fmt.Errorf("slice %d of the window completed no operation", j)
		}
	}
	return win, nil
}
