package dist

import (
	"fmt"

	"pdcedu/internal/csnet"
	"pdcedu/internal/obs"
)

// Coordinator-layer metric names:
//
//	dist.op_latency.<OP>            histogram: whole-op coordinator latency, ns
//	                                (set, get, del, mset, mget, mdel)
//	dist.read_repairs               counter: repair merges pushed to replicas
//	dist.hints.queued               counter: writes queued for a down replica
//	dist.hints.replayed             counter: hints delivered on rejoin
//	dist.hints.dropped              counter: hints lost to the per-backend cap
//	dist.partial_writes             counter: writes returning PartialWriteError
//	dist.quorum_shortfall           counter: keys that missed quorum (MissedKeys)
//	dist.pool.redials               counter: backend connections re-dialed
//	dist.cache.hits                 counter: reads served from the coordinator cache
//	dist.cache.misses               counter: cache-enabled reads that went to replicas
//	dist.cache.invalidations        counter: entries superseded by a write-path event
//	dist.cache.evictions            counter: entries dropped by LRU capacity
//	dist.antientropy.passes         counter: Rebalance passes
//	dist.antientropy.geometry_mismatches
//	                                counter: backends dropped from a pass for
//	                                a different Merkle bucket count
//	dist.antientropy.streamed       counter: entries streamed by repair plans
//	dist.antientropy.purged         counter: non-owner copies purged
//	dist.antientropy.digest_frames  counter: OpTreeV exchanges
//	dist.antientropy.listing_frames counter: OpRangeV exchanges
//	dist.antientropy.keys_listed    counter: entries carried by those listings
//	dist.antientropy.pass_latency   histogram: full Rebalance pass cost, ns
type distMetrics struct {
	latSet  *obs.Histogram
	latGet  *obs.Histogram
	latDel  *obs.Histogram
	latMSet *obs.Histogram
	latMGet *obs.Histogram
	latMDel *obs.Histogram

	readRepairs   *obs.Counter
	hintsQueued   *obs.Counter
	hintsReplayed *obs.Counter
	hintsDropped  *obs.Counter
	partialWrites *obs.Counter
	quorumShort   *obs.Counter
	poolRedials   *obs.Counter

	cacheHits  *obs.Counter
	cacheMiss  *obs.Counter
	cacheInval *obs.Counter
	cacheEvict *obs.Counter

	aePasses        *obs.Counter
	aeGeometry      *obs.Counter
	aeStreamed      *obs.Counter
	aePurged        *obs.Counter
	aeDigestFrames  *obs.Counter
	aeListingFrames *obs.Counter
	aeKeysListed    *obs.Counter
	aePassLatency   *obs.Histogram
}

// distM resolves the coordinator's metric pointers once; the op paths
// record through them directly (see obs package doc).
var distM = func() *distMetrics {
	r := obs.Default()
	return &distMetrics{
		latSet:          r.Histogram("dist.op_latency.set"),
		latGet:          r.Histogram("dist.op_latency.get"),
		latDel:          r.Histogram("dist.op_latency.del"),
		latMSet:         r.Histogram("dist.op_latency.mset"),
		latMGet:         r.Histogram("dist.op_latency.mget"),
		latMDel:         r.Histogram("dist.op_latency.mdel"),
		readRepairs:     r.Counter("dist.read_repairs"),
		hintsQueued:     r.Counter("dist.hints.queued"),
		hintsReplayed:   r.Counter("dist.hints.replayed"),
		hintsDropped:    r.Counter("dist.hints.dropped"),
		partialWrites:   r.Counter("dist.partial_writes"),
		quorumShort:     r.Counter("dist.quorum_shortfall"),
		poolRedials:     r.Counter("dist.pool.redials"),
		cacheHits:       r.Counter("dist.cache.hits"),
		cacheMiss:       r.Counter("dist.cache.misses"),
		cacheInval:      r.Counter("dist.cache.invalidations"),
		cacheEvict:      r.Counter("dist.cache.evictions"),
		aePasses:        r.Counter("dist.antientropy.passes"),
		aeGeometry:      r.Counter("dist.antientropy.geometry_mismatches"),
		aeStreamed:      r.Counter("dist.antientropy.streamed"),
		aePurged:        r.Counter("dist.antientropy.purged"),
		aeDigestFrames:  r.Counter("dist.antientropy.digest_frames"),
		aeListingFrames: r.Counter("dist.antientropy.listing_frames"),
		aeKeysListed:    r.Counter("dist.antientropy.keys_listed"),
		aePassLatency:   r.Histogram("dist.antientropy.pass_latency"),
	}
}()

// ClusterStats fetches and merges the live metrics snapshots of every
// reachable backend: one OpStats round per node over the existing
// multiplexed connections, pipelined as a single burst, folded with
// Snapshot.Merge into cluster-wide totals — counters add, histograms
// add bucketwise, so the merged percentiles are computed over the
// union of every node's samples, not averaged from per-node
// percentiles. Backends that are marked down or fail the round trip
// are skipped; the error reports the first failure, alongside
// whatever the rest of the cluster answered.
func (c *Cluster) ClusterStats() (obs.Snapshot, error) {
	type sent struct {
		call    *csnet.Call
		backend int
	}
	c.mu.Lock()
	down := make([]bool, len(c.down))
	copy(down, c.down)
	c.mu.Unlock()
	calls := make([]sent, 0, len(c.pools))
	var firstErr error
	for b, p := range c.pools {
		if down[b] {
			continue
		}
		cl, err := p.get()
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("dist: cluster stats on backend %d: %w", b, err)
			}
			continue
		}
		calls = append(calls, sent{cl.Send(csnet.Request{Op: csnet.OpStats}), b})
	}
	var merged obs.Snapshot
	for _, s := range calls {
		resp, err := s.call.Response()
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("dist: cluster stats on backend %d: %w", s.backend, err)
			}
			continue
		}
		if resp.Status != csnet.StatusOK {
			if firstErr == nil {
				firstErr = fmt.Errorf("dist: cluster stats on backend %d: status %s: %s", s.backend, resp.Status, resp.Value)
			}
			continue
		}
		snap, err := obs.DecodeSnapshot(resp.Value)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("dist: cluster stats on backend %d: %w", s.backend, err)
			}
			continue
		}
		merged = merged.Merge(snap)
	}
	return merged, firstErr
}
