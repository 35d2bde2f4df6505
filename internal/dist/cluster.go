package dist

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"pdcedu/internal/csnet"
	"pdcedu/internal/obs"
	"pdcedu/internal/store"
	"pdcedu/internal/trace"
)

// ClusterConfig configures a Cluster.
type ClusterConfig struct {
	// Addrs are the backend csnet.Server addresses (at least one).
	Addrs []string
	// Replication is the number of backends each key is written to
	// (default 1, capped at len(Addrs)).
	Replication int
	// Balancer spreads reads across a key's replica set; a key's read
	// slot is Pick(key) mod Replication. Nil defaults to primary-first
	// reads via the placement ring. Placement itself is always ring
	// based so Set and Get agree on where a key lives regardless of the
	// strategy plugged in here.
	Balancer Balancer
	// Vnodes is the virtual-node count of the placement ring (default 64).
	Vnodes int
	// Timeout bounds each backend round-trip (default 5s).
	Timeout time.Duration
	// WriteQuorum is how many replica acks a Set/MSet needs to succeed
	// (default a majority of Replication, clamped to [1, Replication]).
	// Set it to Replication to restore strict write-all semantics.
	WriteQuorum int
	// Buckets is the Merkle bucket count placement and anti-entropy
	// agree on (rounded up to a power of two; default
	// store.DefaultMerkleBuckets). It must match the backends' engine
	// MerkleBuckets — the digest exchange carries the geometry, and
	// Rebalance drops a mismatched backend from the pass with an error
	// that names it.
	Buckets int
	// Tracer records the coordinator's spans and originates trace
	// contexts for cluster operations (nil = trace.Default()). Enable
	// and sample it to trace: while it is disabled — the default —
	// every op runs untraced at one extra atomic load, and request
	// frames stay byte-identical.
	Tracer *trace.Recorder
	// ReadCache bounds the coordinator's hot-key read cache in entries
	// (0, the default, disables it). Quorum-read wins and quorum-write
	// successes populate it; every write path the coordinator sees
	// invalidates by version. See readCache for the coherence contract
	// and Session for read-your-writes on top of it.
	ReadCache int
}

// Cluster shards one key space across several csnet backend servers: a
// consistent-hash ring places each key's Merkle bucket (so every key
// in a bucket shares one replica set — the granularity anti-entropy
// digests compare) on its Replication first distinct ring successors,
// writes go synchronously to the live members of that set (succeeding
// on a quorum of acks), and reads are spread over the replica set by
// the configured Balancer with read-repair backfilling replicas that
// missed a write.
//
// Transport: one pipelined, multiplexed connection per backend, shared
// by all concurrent callers. Replica fan-out and the batch APIs
// (MSet/MGet/MDel) issue asynchronous sends and then collect, so a
// replicated write costs one round-trip of latency and a 100-key batch
// costs one pipelined burst per backend instead of 100 lock-step round
// trips.
//
// Versioning: every write is stamped by the cluster's hybrid logical
// clock and applied on each replica with last-writer-wins merge
// (csnet.OpSetV/OpDelV/OpMerge over a versioned store.Engine), so no
// replay path — read-repair, hinted handoff, the rebalancer — can ever
// overwrite a newer value with an older one, regardless of delivery
// order. Deletes are tombstones and propagate through the same merge,
// which is what lets the rebalancer converge a rejoined replica
// correctly even when its hints were dropped.
//
// Fault tolerance: Watch subscribes the cluster to a member.Memberlist
// so dead backends are evicted from the ring (their keys reroute to the
// next live nodes) and recovered ones are readmitted. Writes that fail
// on an unreachable replica are queued as hints (latest version per
// key, expiry included) and replayed when the replica rejoins; a
// background Merkle anti-entropy pass compares replica digests and
// streams exactly the diverged entries — missing, stale, value-split,
// or tombstoned — to their current owners after every ring change,
// then purges copies left on non-owners. See
// MarkDown, MarkUp, Rebalance, AntiEntropyStats, and
// PartialWriteError.
type Cluster struct {
	ring     *ConsistentHash // live placement: down backends removed
	clock    *store.Clock    // stamps write versions, observes read versions
	balancer Balancer
	tracer   *trace.Recorder
	cache    *readCache // hot-key read cache; nil when disabled
	rf       int
	quorum   int
	pools    []*clientPool
	addrIdx  map[string]int
	// Placement is bucket-granular: a key maps to its Merkle bucket
	// (store.BucketOf) and the bucket — not the key — is what the ring
	// places. Every key in a bucket therefore shares one replica set,
	// which is what makes two replicas' bucket hashes comparable: when
	// they disagree, the bucket has genuinely diverged, not merely been
	// sliced differently by per-key placement.
	buckets    int
	bucketKeys []string // precomputed ring keys, one per bucket

	mu        sync.Mutex
	down      []bool
	hints     []map[string]hintEntry // per-backend pending hinted operations
	hintDrops uint64
	lastAE    AntiEntropyStats

	rebalanceMu   sync.Mutex // serializes Rebalance passes
	rebalance     chan struct{}
	stop          chan struct{}
	rebalanceDone chan struct{}
	closeOnce     sync.Once
}

// NewCluster connects a cluster router to the configured backends.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	n := len(cfg.Addrs)
	if n == 0 {
		return nil, errors.New("dist: cluster needs at least one backend address")
	}
	rf := cfg.Replication
	if rf < 1 {
		rf = 1
	}
	if rf > n {
		rf = n
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	quorum := cfg.WriteQuorum
	if quorum <= 0 {
		quorum = rf/2 + 1
	}
	if quorum > rf {
		quorum = rf
	}
	buckets := cfg.Buckets
	if buckets <= 0 {
		buckets = store.DefaultMerkleBuckets
	}
	pow := 1
	for pow < buckets {
		pow <<= 1
	}
	buckets = pow
	tracer := cfg.Tracer
	if tracer == nil {
		tracer = trace.Default()
	}
	c := &Cluster{
		ring:          NewConsistentHash(n, cfg.Vnodes),
		clock:         store.NewClock(),
		balancer:      cfg.Balancer,
		tracer:        tracer,
		cache:         newReadCache(cfg.ReadCache),
		rf:            rf,
		quorum:        quorum,
		pools:         make([]*clientPool, n),
		addrIdx:       make(map[string]int, n),
		buckets:       buckets,
		bucketKeys:    make([]string, buckets),
		down:          make([]bool, n),
		hints:         make([]map[string]hintEntry, n),
		rebalance:     make(chan struct{}, 1),
		stop:          make(chan struct{}),
		rebalanceDone: make(chan struct{}),
	}
	for b := range c.bucketKeys {
		c.bucketKeys[b] = fmt.Sprintf("bucket-%d", b)
	}
	for i, addr := range cfg.Addrs {
		c.pools[i] = &clientPool{addr: addr, timeout: timeout}
		c.addrIdx[addr] = i
	}
	go c.rebalanceLoop()
	return c, nil
}

// Backends reports the number of backend servers.
func (c *Cluster) Backends() int { return len(c.pools) }

// Replication reports the effective replication factor.
func (c *Cluster) Replication() int { return c.rf }

// replicaSet returns the live backends holding key: the first rf
// distinct nodes clockwise from the key's *bucket's* ring position
// (placement is bucket-granular; see the Cluster doc). Backends marked
// down are out of the ring, so the set shrinks below rf only when
// fewer than rf backends are live.
func (c *Cluster) replicaSet(key string) []int {
	return c.ownersOf(store.BucketOf(key, c.buckets))
}

// ownersOf returns the live replica set of one Merkle bucket.
func (c *Cluster) ownersOf(bucket int) []int {
	return c.ring.PickN(c.bucketKeys[bucket], c.rf)
}

// ReplicaSet reports the live backends currently owning key, primary
// first — the placement every read, write, and anti-entropy pass
// uses. Demos and operators use it to check replication coverage
// against the cluster's actual geometry.
func (c *Cluster) ReplicaSet(key string) []int { return c.replicaSet(key) }

// startOp opens a new trace plus its root coordinator span for one
// public cluster operation, returning the propagation context (root as
// parent) and the root span to Finish. With tracing disabled both are
// inert and the whole detour is one atomic load.
func (c *Cluster) startOp(op string) (trace.Context, trace.Active) {
	ctx := c.tracer.NewTrace()
	if !ctx.Valid() {
		return ctx, trace.Active{}
	}
	root := c.tracer.StartSpan(ctx, trace.KindOp, op)
	return root.Context(), root
}

// rpcSpan opens the coordinator-side span for one backend call; the
// returned span's Context goes onto the request so the backend's
// server span hangs off this hop.
func (c *Cluster) rpcSpan(ctx trace.Context, op string, backend int) trace.Active {
	sp := c.tracer.StartSpan(ctx, trace.KindRPC, op)
	if sp.Live() {
		sp.S.Peer = c.pools[backend].addr
	}
	return sp
}

// startAE opens a trace for one anti-entropy pass. Unlike client ops a
// pass is self-originated, so its root span carries the AE kind — a
// slow-pass waterfall reads as "antientropy" rather than a client op.
func (c *Cluster) startAE(op string) (trace.Context, trace.Active) {
	ctx := c.tracer.NewTrace()
	if !ctx.Valid() {
		return ctx, trace.Active{}
	}
	root := c.tracer.StartSpan(ctx, trace.KindAE, op)
	return root.Context(), root
}

// quorumFor is the ack count a write to a set of n live replicas needs:
// the configured quorum, degraded to n when fewer than quorum replicas
// are live (so a minority partition keeps accepting writes rather than
// rejecting everything; the rebalancer restores full replication when
// nodes return).
func (c *Cluster) quorumFor(n int) int {
	q := c.quorum
	if q > n {
		q = n
	}
	if q < 1 {
		q = 1
	}
	return q
}

// statusErr converts a backend rejection into a cause error,
// preserving the busy type: a StatusBusy reply wraps csnet.ErrBusy so
// errors.Is(err, csnet.ErrBusy) — including through a
// PartialWriteError's causes — identifies shed writes as retryable.
func statusErr(resp csnet.Response) error {
	if resp.Status == csnet.StatusBusy {
		return fmt.Errorf("status %s: %w", resp.Status, csnet.ErrBusy)
	}
	return fmt.Errorf("status %s: %s", resp.Status, resp.Value)
}

// cacheSupersede invalidates the read cache at ver, counting only
// calls that actually changed a slot.
func (c *Cluster) cacheSupersede(key string, ver uint64) {
	if c.cache.supersede(key, ver) {
		distM.cacheInval.Inc()
	}
}

// Set writes key to every live replica synchronously: the coordinator
// stamps one clock version, the sends are pipelined onto each
// replica's multiplexed connection as versioned merges (OpSetV) and
// then collected, so latency stays near one round-trip regardless of
// the replication factor — no per-call goroutine fan-out. Every
// replica converges on the same (value, version); concurrent Sets of
// the same key from any number of coordinators resolve last-writer-
// wins by version on every replica identically, so replicas can no
// longer end up disagreeing about a race. It succeeds once a quorum of
// the live replica set acknowledges (a replica reporting it already
// holds something newer counts — the state there is newer than this
// write, which is durable enough); replicas that were unreachable get
// the write queued as a version-stamped hint, replayed when they
// rejoin. Below quorum it returns a *PartialWriteError naming the
// replicas that did acknowledge.
func (c *Cluster) Set(key string, value []byte) error {
	return c.setTTL(key, value, 0, nil)
}

// SetS is Set bound to a read-your-writes Session: on success the
// session observes the write's version, so a later GetS through the
// same session can never be served a cached entry older than this
// write. See Session.
func (c *Cluster) SetS(sess *Session, key string, value []byte) error {
	return c.setTTL(key, value, 0, sess)
}

// SetTTL is Set with an expiry: the coordinator computes one absolute
// ExpireAt from ttl (<= 0 means no expiry) and stamps it into every
// replica's OpSetV — and into any hint queued for an unreachable
// replica — so the entry is mortal everywhere it lands, and an expired
// copy converges to an expiry tombstone instead of resurrecting.
func (c *Cluster) SetTTL(key string, value []byte, ttl time.Duration) error {
	return c.setTTL(key, value, ttl, nil)
}

func (c *Cluster) setTTL(key string, value []byte, ttl time.Duration, sess *Session) error {
	defer distM.latSet.ObserveSince(obs.StartTimer())
	set := c.replicaSet(key)
	if len(set) == 0 {
		return fmt.Errorf("dist: cluster set %q: no live backends", key)
	}
	var expireAt int64
	if ttl > 0 {
		expireAt = time.Now().Add(ttl).UnixNano()
	}
	ver := c.clock.Next()
	ctx, root := c.startOp("set")
	type sent struct {
		call    *csnet.Call
		backend int
		sp      trace.Active
	}
	calls := make([]sent, 0, len(set))
	acked := make([]int, 0, len(set))
	var hinted []int
	var causes map[int]error
	fail := func(b int, err error, hint bool) {
		if causes == nil {
			causes = map[int]error{}
		}
		causes[b] = err
		if hint {
			c.hint(b, key, hintEntry{val: value, ver: ver, exp: expireAt, tr: ctx})
			hinted = append(hinted, b)
		}
	}
	for _, b := range set {
		cl, err := c.pools[b].get()
		if err != nil {
			fail(b, err, true)
			continue
		}
		sp := c.rpcSpan(ctx, "SETV", b)
		calls = append(calls, sent{cl.Send(csnet.Request{Op: csnet.OpSetV, Key: key, Value: value, Version: ver, ExpireAt: expireAt, Trace: sp.Context()}), b, sp})
	}
	var lostTo uint64 // newest StatusExists version: a replica already held newer
	for i := range calls {
		s := &calls[i]
		resp, err := s.call.ResponseV()
		switch {
		case err != nil:
			// Transport failure: the backend is unreachable or dying, so
			// the write is worth replaying when it returns.
			fail(s.backend, err, true)
			s.sp.S.Err = true
		case resp.Status != csnet.StatusOK && resp.Status != csnet.StatusExists:
			// The backend is alive and rejected the write; a replay
			// would be rejected again, so no hint.
			fail(s.backend, statusErr(resp), false)
			s.sp.S.Err = true
		default:
			// Observe the winner: a StatusExists reply carries the newer
			// resident version, and a coordinator whose wall clock lags
			// must advance past it or its next write loses too.
			c.clock.Observe(resp.Version)
			if resp.Status == csnet.StatusExists && resp.Version > lostTo {
				lostTo = resp.Version
			}
			acked = append(acked, s.backend)
		}
		s.sp.Finish()
	}
	if q := c.quorumFor(len(set)); len(acked) < q {
		// Under quorum the write's fate is unsettled — it may yet win or
		// lose on the replicas — so the cache must not claim either way.
		c.cacheSupersede(key, ver)
		distM.partialWrites.Inc()
		distM.quorumShort.Inc()
		root.S.Err = true
		root.Finish()
		return &PartialWriteError{
			Op: "set", Key: key, Replicas: set,
			Acked: acked, Hinted: hinted, Quorum: q, MissedKeys: 1, Causes: causes,
		}
	}
	sess.Observe(ver)
	if lostTo > 0 {
		// A replica already held something newer: this write is durable
		// but not the winner, and the coordinator never saw the winning
		// value — invalidate rather than cache a loser.
		c.cacheSupersede(key, lostTo)
	} else {
		c.cache.put(key, store.Entry{Value: value, Version: ver, ExpireAt: expireAt})
	}
	root.Finish()
	return nil
}

// readPick returns the index into a key's n-element live replica set to
// try first, consulting the Balancer when one is configured. The
// returned release must be called when the read completes, so
// load-aware strategies (least-loaded, power-of-two) see genuinely
// in-flight requests rather than counters that zero out immediately.
func (c *Cluster) readPick(key string, n int) (first int, release func()) {
	if c.balancer == nil || n < 1 {
		return 0, func() {}
	}
	pick := c.balancer.Pick(key)
	return ((pick % n) + n) % n, func() { c.balancer.Done(pick) }
}

// Get reads key from its replica set with versioned reads (OpGetV).
// The Balancer picks the replica to try first; on a miss the remaining
// replicas are consulted, and when a later replica has the value,
// read-repair merges it back to every replica that missed. A replica
// that misses because it holds a tombstone reports the tombstone's
// version: if that tombstone is newer than the value another replica
// returns, the key is deleted — Get reports a miss and propagates the
// tombstone to the stale holder instead of resurrecting the value. A
// (nil, false, nil) return means no replica has a live copy.
//
// With a read cache configured (ClusterConfig.ReadCache) a servable
// cached entry — a live value, or a cached tombstone reported as a
// definitive miss — short-circuits the replica round entirely; reads
// that do go to the replicas populate the cache with what they learn
// (the winning entry, or the newest tombstone seen).
func (c *Cluster) Get(key string) (value []byte, ok bool, err error) {
	return c.getS(key, nil)
}

// GetS is Get bound to a read-your-writes Session: a cached entry is
// served only when its version is at least the session's watermark, so
// a session can never be handed a cached read older than its own
// writes; the session then observes what it read, making session reads
// monotonic too.
func (c *Cluster) GetS(sess *Session, key string) (value []byte, ok bool, err error) {
	return c.getS(key, sess)
}

func (c *Cluster) getS(key string, sess *Session) (value []byte, ok bool, err error) {
	defer distM.latGet.ObserveSince(obs.StartTimer())
	if c.cache != nil {
		if e, hit := c.cache.get(key, cacheNow()); hit && e.Version >= sess.Last() {
			distM.cacheHits.Inc()
			sess.Observe(e.Version)
			if e.Tombstone {
				return nil, false, nil
			}
			return e.Value, true, nil
		}
		distM.cacheMiss.Inc()
	}
	set := c.replicaSet(key)
	if len(set) == 0 {
		return nil, false, fmt.Errorf("dist: cluster get %q: no live backends", key)
	}
	first, release := c.readPick(key, len(set))
	defer release()
	ctx, root := c.startOp("get")
	var missed []int
	var tombVer uint64 // newest tombstone seen across misses
	var tombExp int64  // its ExpireAt (nonzero for expiry tombstones)
	var lastErr error
	for i := 0; i < len(set); i++ {
		b := set[(first+i)%len(set)]
		cl, err := c.pools[b].get()
		if err != nil {
			lastErr = err
			continue
		}
		sp := c.rpcSpan(ctx, "GETV", b)
		e, found, err := cl.GetVT(key, sp.Context())
		if err != nil {
			lastErr = err
			sp.S.Err = true
			sp.Finish()
			continue
		}
		sp.Finish()
		// Observe every version seen — misses included: a tombstone (or
		// expired copy) this coordinator has read must order below its
		// next write, or a Set issued after reading the delete could
		// stamp under the tombstone and lose everywhere while
		// reporting success.
		c.clock.Observe(e.Version)
		if !found {
			if e.Tombstone && e.Version > tombVer {
				// Keep the tombstone's expiry too: an expiry tombstone
				// repaired onto a peer without its ExpireAt would age
				// from the (older) write time and could be GC'd before
				// the peer's own copy had even expired — reopening the
				// resurrection hole.
				tombVer, tombExp = e.Version, e.ExpireAt
			}
			missed = append(missed, b)
			continue
		}
		// A tie goes to the tombstone, matching Entry.Wins: replicas
		// converge to deleted on equal versions, so the read must too.
		if tombVer >= e.Version {
			// A replica consulted earlier holds a newer delete: the
			// value is stale, not the miss. Push the tombstone at the
			// stale holder and report the key gone.
			tomb := store.Entry{Version: tombVer, Tombstone: true, ExpireAt: tombExp}
			c.readRepair(ctx, key, tomb, []int{b})
			c.cache.put(key, tomb)
			sess.Observe(tombVer)
			root.Finish()
			return nil, false, nil
		}
		c.readRepair(ctx, key, e, missed)
		c.cache.put(key, e)
		sess.Observe(e.Version)
		root.Finish()
		return e.Value, true, nil
	}
	if lastErr != nil {
		root.S.Err = true
		root.Finish()
		return nil, false, fmt.Errorf("dist: cluster get %q: %w", key, lastErr)
	}
	if tombVer > 0 {
		// Every replica missed and the newest miss was an explicit
		// tombstone: cache it, so the hot "polling a deleted key" case
		// is as cheap as the hot value case.
		c.cache.put(key, store.Entry{Version: tombVer, Tombstone: true, ExpireAt: tombExp})
		sess.Observe(tombVer)
	}
	root.Finish()
	return nil, false, nil
}

// readRepair merges an entry onto replicas that returned a miss (or a
// stale copy), as one pipelined burst. The merge is version-aware: it
// fills holes and fixes stale copies but can never overwrite a newer
// write that landed between the miss and the repair — the engine keeps
// the newer version and answers StatusExists. Failures are ignored
// (the next read retries the repair).
func (c *Cluster) readRepair(ctx trace.Context, key string, e store.Entry, missed []int) {
	// The repair entry supersedes whatever the cache holds below it;
	// the caller installs the same entry right after, replacing the
	// floor with the servable copy.
	c.cacheSupersede(key, e.Version)
	if len(missed) > 0 {
		distM.readRepairs.Add(uint64(len(missed)))
	}
	type repairCall struct {
		call *csnet.Call
		sp   trace.Active
	}
	calls := make([]repairCall, 0, len(missed))
	for _, b := range missed {
		cl, err := c.pools[b].get()
		if err != nil {
			continue
		}
		// The repair rides the read's trace: a waterfall shows exactly
		// which replicas were backfilled (or tombstoned) and what it cost.
		sp := c.tracer.StartSpan(ctx, trace.KindRepair, "MERGE")
		if sp.Live() {
			sp.S.Peer = c.pools[b].addr
		}
		req := csnet.Request{Op: csnet.OpMerge, Key: key, Value: e.Value, Version: e.Version, ExpireAt: e.ExpireAt, Trace: sp.Context()}
		if e.Tombstone {
			req.Flags |= csnet.FlagTombstone
			req.Value = nil
		}
		calls = append(calls, repairCall{call: cl.Send(req), sp: sp})
	}
	for _, rc := range calls {
		if _, err := rc.call.ResponseV(); err != nil {
			rc.sp.S.Err = true
		}
		rc.sp.Finish()
	}
}

// Del removes key from every live replica by writing a version-stamped
// tombstone (OpDelV), fanning the deletes out as pipelined async sends
// collected together (parallel across replicas, like Set); ok reports
// whether any replica had a live copy. The tombstone is what makes the
// delete durable against recovery: a replica that missed it converges
// through hint replay or the rebalancer's tombstone streaming, and a
// stale copy can never win the merge against it.
func (c *Cluster) Del(key string) (ok bool, err error) {
	return c.delS(key, nil)
}

// DelS is Del bound to a read-your-writes Session: on success the
// session observes the tombstone's version, so a later GetS through
// the same session reports the key gone rather than serving a cached
// pre-delete value.
func (c *Cluster) DelS(sess *Session, key string) (ok bool, err error) {
	return c.delS(key, sess)
}

func (c *Cluster) delS(key string, sess *Session) (ok bool, err error) {
	defer distM.latDel.ObserveSince(obs.StartTimer())
	set := c.replicaSet(key)
	if len(set) == 0 {
		return false, fmt.Errorf("dist: cluster del %q: no live backends", key)
	}
	ver := c.clock.Next()
	ctx, root := c.startOp("del")
	calls := make([]*csnet.Call, len(set))
	spans := make([]trace.Active, len(set))
	var firstErr error
	var lostTo uint64 // newest StatusExists version seen (see setTTL)
	for i, b := range set {
		cl, cerr := c.pools[b].get()
		if cerr != nil {
			c.hint(b, key, hintEntry{del: true, ver: ver, tr: ctx})
			if firstErr == nil {
				firstErr = fmt.Errorf("dist: cluster del %q on backend %d: %w", key, b, cerr)
			}
			continue
		}
		spans[i] = c.rpcSpan(ctx, "DELV", b)
		calls[i] = cl.Send(csnet.Request{Op: csnet.OpDelV, Key: key, Version: ver, Trace: spans[i].Context()})
	}
	for i, call := range calls {
		if call == nil {
			continue
		}
		resp, cerr := call.ResponseV()
		if cerr != nil {
			// Transport failure: the replica may still hold the key, so
			// the deletion must replay when it returns.
			c.hint(set[i], key, hintEntry{del: true, ver: ver, tr: ctx})
			if firstErr == nil {
				firstErr = fmt.Errorf("dist: cluster del %q on backend %d: %w", key, set[i], cerr)
			}
			spans[i].S.Err = true
			spans[i].Finish()
			continue
		}
		if resp.Status != csnet.StatusOK && resp.Status != csnet.StatusNotFound && resp.Status != csnet.StatusExists {
			if firstErr == nil {
				firstErr = fmt.Errorf("dist: cluster del %q on backend %d: %w", key, set[i], statusErr(resp))
			}
			spans[i].S.Err = true
			spans[i].Finish()
			continue
		}
		c.clock.Observe(resp.Version) // advance past a newer resident version (see Set)
		if resp.Status == csnet.StatusExists && resp.Version > lostTo {
			lostTo = resp.Version
		}
		ok = ok || resp.Status == csnet.StatusOK
		spans[i].Finish()
	}
	sess.Observe(ver)
	switch {
	case firstErr != nil:
		// Some replica's fate is unknown (hinted or rejected): the
		// delete is in flight, not settled — invalidate, don't assert.
		c.cacheSupersede(key, ver)
	case lostTo > 0:
		// A replica already held something newer than this tombstone;
		// the coordinator never saw it, so it cannot cache the outcome.
		c.cacheSupersede(key, lostTo)
	default:
		c.cache.put(key, store.Entry{Version: ver, Tombstone: true})
	}
	root.S.Err = firstErr != nil
	root.Finish()
	return ok, firstErr
}

// batchClients lazily resolves one pooled client per backend for a
// batch operation, caching dial failures so a dead backend is reported
// once instead of re-dialed per key.
type batchClients struct {
	c      *Cluster
	cls    []*csnet.Client
	errs   []error
	dialed []bool
}

func (c *Cluster) newBatchClients() *batchClients {
	n := len(c.pools)
	return &batchClients{c: c, cls: make([]*csnet.Client, n), errs: make([]error, n), dialed: make([]bool, n)}
}

func (bc *batchClients) get(b int) (*csnet.Client, error) {
	if !bc.dialed[b] {
		bc.dialed[b] = true
		bc.cls[b], bc.errs[b] = bc.c.pools[b].get()
	}
	return bc.cls[b], bc.errs[b]
}

// MSet writes many key/value pairs with replicated quorum writes: keys
// are grouped by replica set and each backend receives its whole share
// as one pipelined batch, so the wall-clock cost is one burst per
// backend rather than one round-trip per key per replica. Per key the
// semantics match Set — a quorum of the live replica set must
// acknowledge, unreachable replicas get hints — and when any key misses
// quorum the whole batch returns one *PartialWriteError carrying the
// first such key's detail plus the total count of under-quorum keys
// (every other key's writes still complete and remain durable).
func (c *Cluster) MSet(keys []string, values [][]byte) error {
	return c.MSetTTL(keys, values, 0)
}

// MSetTTL is MSet with one expiry applied to the whole batch (ttl <= 0
// means no expiry); see SetTTL for the replication semantics.
func (c *Cluster) MSetTTL(keys []string, values [][]byte, ttl time.Duration) error {
	defer distM.latMSet.ObserveSince(obs.StartTimer())
	if len(keys) != len(values) {
		return fmt.Errorf("dist: cluster mset: %d keys but %d values", len(keys), len(values))
	}
	var expireAt int64
	if ttl > 0 {
		expireAt = time.Now().Add(ttl).UnixNano()
	}
	bc := c.newBatchClients()
	ctx, root := c.startOp("mset")
	type sent struct {
		call    *csnet.Call
		key     int
		backend int
		sp      trace.Active
	}
	sets := make([][]int, len(keys))
	acked := make([][]int, len(keys))
	hinted := make([][]int, len(keys))
	causes := make([]map[int]error, len(keys))
	vers := make([]uint64, len(keys))
	fail := func(i, b int, err error, hint bool) {
		if causes[i] == nil {
			causes[i] = map[int]error{}
		}
		causes[i][b] = err
		if hint {
			c.hint(b, keys[i], hintEntry{val: values[i], ver: vers[i], exp: expireAt, tr: ctx})
			hinted[i] = append(hinted[i], b)
		}
	}
	calls := make([]sent, 0, len(keys)*c.rf)
	for i, key := range keys {
		sets[i] = c.replicaSet(key)
		vers[i] = c.clock.Next()
		for _, b := range sets[i] {
			cl, err := bc.get(b)
			if err != nil {
				fail(i, b, err, true)
				continue
			}
			sp := c.rpcSpan(ctx, "SETV", b)
			calls = append(calls, sent{
				call:    cl.Send(csnet.Request{Op: csnet.OpSetV, Key: key, Value: values[i], Version: vers[i], ExpireAt: expireAt, Trace: sp.Context()}),
				key:     i,
				backend: b,
				sp:      sp,
			})
		}
	}
	lostTo := make([]uint64, len(keys)) // per key: newest StatusExists version (see setTTL)
	for i := range calls {
		s := &calls[i]
		resp, err := s.call.ResponseV()
		switch {
		case err != nil:
			fail(s.key, s.backend, err, true)
			s.sp.S.Err = true
		case resp.Status != csnet.StatusOK && resp.Status != csnet.StatusExists:
			fail(s.key, s.backend, statusErr(resp), false)
			s.sp.S.Err = true
		default:
			c.clock.Observe(resp.Version) // advance past a newer resident version (see Set)
			if resp.Status == csnet.StatusExists && resp.Version > lostTo[s.key] {
				lostTo[s.key] = resp.Version
			}
			acked[s.key] = append(acked[s.key], s.backend)
		}
		s.sp.Finish()
	}
	var pe *PartialWriteError
	for i := range keys {
		q := c.quorumFor(len(sets[i]))
		switch {
		case len(sets[i]) == 0 || len(acked[i]) < q:
			c.cacheSupersede(keys[i], vers[i])
			if pe == nil {
				pe = &PartialWriteError{
					Op: "mset", Key: keys[i], Replicas: sets[i],
					Acked: acked[i], Hinted: hinted[i], Quorum: q, Causes: causes[i],
				}
			}
			pe.MissedKeys++
		case lostTo[i] > 0:
			c.cacheSupersede(keys[i], lostTo[i])
		default:
			c.cache.put(keys[i], store.Entry{Value: values[i], Version: vers[i], ExpireAt: expireAt})
		}
	}
	if pe != nil {
		distM.partialWrites.Inc()
		distM.quorumShort.Add(uint64(pe.MissedKeys))
		root.S.Err = true
		root.Finish()
		return pe
	}
	root.Finish()
	return nil
}

// MGet reads many keys as one pipelined batch per backend: each key is
// asked of its balancer-chosen first replica; keys that miss or error
// there fall back to the ordinary Get path (remaining replicas plus
// read-repair). The result maps each found key to its value; absent
// keys are simply not in the map. A non-nil error reports the first
// key whose full replica set failed, after the rest of the batch has
// completed.
func (c *Cluster) MGet(keys []string) (map[string][]byte, error) {
	defer distM.latMGet.ObserveSince(obs.StartTimer())
	bc := c.newBatchClients()
	ctx, root := c.startOp("mget")
	defer root.Finish()
	found := make(map[string][]byte, len(keys))
	type sent struct {
		call *csnet.Call
		key  int
		sp   trace.Active
	}
	calls := make([]sent, 0, len(keys))
	releases := make([]func(), 0, len(keys))
	defer func() { // the whole batch is in flight until collected
		for _, release := range releases {
			release()
		}
	}()
	var retry []int
	for i, key := range keys {
		if c.cache != nil {
			if e, hit := c.cache.get(key, cacheNow()); hit {
				distM.cacheHits.Inc()
				if !e.Tombstone {
					found[key] = e.Value
				}
				continue
			}
			distM.cacheMiss.Inc()
		}
		set := c.replicaSet(key)
		if len(set) == 0 {
			retry = append(retry, i) // Get reports the no-backends error
			continue
		}
		first, release := c.readPick(key, len(set))
		releases = append(releases, release)
		cl, err := bc.get(set[first])
		if err != nil {
			retry = append(retry, i)
			continue
		}
		sp := c.rpcSpan(ctx, "GETV", set[first])
		calls = append(calls, sent{call: cl.Send(csnet.Request{Op: csnet.OpGetV, Key: key, Trace: sp.Context()}), key: i, sp: sp})
	}
	var firstErr error
	for ci := range calls {
		s := &calls[ci]
		resp, err := s.call.ResponseV()
		switch {
		case err != nil:
			retry = append(retry, s.key)
			s.sp.S.Err = true
		case resp.Status == csnet.StatusOK:
			c.clock.Observe(resp.Version)
			found[keys[s.key]] = resp.Value
			c.cache.put(keys[s.key], store.Entry{Value: resp.Value, Version: resp.Version, ExpireAt: resp.ExpireAt})
		case resp.Status == csnet.StatusNotFound && c.rf > 1:
			// Another replica may still hold it (and want repair) — or
			// hold a copy staler than a tombstone seen here; the Get
			// fallback resolves both by version.
			c.clock.Observe(resp.Version) // a tombstone's version still orders our next write
			retry = append(retry, s.key)
		case resp.Status == csnet.StatusNotFound:
			// rf == 1: a miss on the only replica is a definitive miss.
			c.clock.Observe(resp.Version)
			if resp.Flags&csnet.FlagTombstone != 0 {
				c.cache.put(keys[s.key], store.Entry{Version: resp.Version, Tombstone: true, ExpireAt: resp.ExpireAt})
			}
		default:
			if firstErr == nil {
				firstErr = fmt.Errorf("dist: cluster mget %q: status %s: %s", keys[s.key], resp.Status, resp.Value)
			}
			s.sp.S.Err = true
		}
		s.sp.Finish()
	}
	for _, i := range retry {
		v, ok, err := c.Get(keys[i])
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if ok {
			found[keys[i]] = v
		}
	}
	return found, firstErr
}

// MDel removes many keys from their live replica sets with version-
// stamped tombstones, one pipelined batch per backend, queuing delete
// hints for replicas that were unreachable (see Del). It returns how
// many keys existed on at least one replica.
func (c *Cluster) MDel(keys []string) (int, error) {
	defer distM.latMDel.ObserveSince(obs.StartTimer())
	bc := c.newBatchClients()
	ctx, root := c.startOp("mdel")
	type sent struct {
		call    *csnet.Call
		key     int
		backend int
		sp      trace.Active
	}
	calls := make([]sent, 0, len(keys)*c.rf)
	vers := make([]uint64, len(keys))
	keyErr := make([]bool, len(keys))   // per key: some replica's fate is unknown
	lostTo := make([]uint64, len(keys)) // per key: newest StatusExists version (see setTTL)
	var firstErr error
	for i, key := range keys {
		vers[i] = c.clock.Next()
		for _, b := range c.replicaSet(key) {
			cl, err := bc.get(b)
			if err != nil {
				c.hint(b, key, hintEntry{del: true, ver: vers[i], tr: ctx})
				keyErr[i] = true
				if firstErr == nil {
					firstErr = fmt.Errorf("dist: cluster mdel %q on backend %d: %w", key, b, err)
				}
				continue
			}
			sp := c.rpcSpan(ctx, "DELV", b)
			calls = append(calls, sent{
				call:    cl.Send(csnet.Request{Op: csnet.OpDelV, Key: key, Version: vers[i], Trace: sp.Context()}),
				key:     i,
				backend: b,
				sp:      sp,
			})
		}
	}
	existed := make([]bool, len(keys))
	for ci := range calls {
		s := &calls[ci]
		resp, err := s.call.ResponseV()
		if err != nil {
			c.hint(s.backend, keys[s.key], hintEntry{del: true, ver: vers[s.key], tr: ctx})
			keyErr[s.key] = true
			if firstErr == nil {
				firstErr = fmt.Errorf("dist: cluster mdel %q on backend %d: %w", keys[s.key], s.backend, err)
			}
			s.sp.S.Err = true
			s.sp.Finish()
			continue
		}
		if resp.Status != csnet.StatusOK && resp.Status != csnet.StatusNotFound && resp.Status != csnet.StatusExists {
			keyErr[s.key] = true
			if firstErr == nil {
				firstErr = fmt.Errorf("dist: cluster mdel %q on backend %d: %w", keys[s.key], s.backend, statusErr(resp))
			}
			s.sp.S.Err = true
			s.sp.Finish()
			continue
		}
		c.clock.Observe(resp.Version) // advance past a newer resident version (see Set)
		if resp.Status == csnet.StatusExists && resp.Version > lostTo[s.key] {
			lostTo[s.key] = resp.Version
		}
		if resp.Status == csnet.StatusOK {
			existed[s.key] = true
		}
		s.sp.Finish()
	}
	n := 0
	for _, e := range existed {
		if e {
			n++
		}
	}
	for i, key := range keys {
		switch {
		case keyErr[i]:
			c.cacheSupersede(key, vers[i])
		case lostTo[i] > 0:
			c.cacheSupersede(key, lostTo[i])
		default:
			c.cache.put(key, store.Entry{Version: vers[i], Tombstone: true})
		}
	}
	root.S.Err = firstErr != nil
	root.Finish()
	return n, firstErr
}

// Close stops the background rebalancer and releases every backend
// connection. Safe to call more than once.
func (c *Cluster) Close() error {
	c.closeOnce.Do(func() {
		close(c.stop)
	})
	<-c.rebalanceDone // a rebalance pass in flight finishes first
	var first error
	for _, p := range c.pools {
		if err := p.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// clientPool holds the single multiplexed connection to one backend.
// The old many-connections pool is gone: pipelining made it redundant,
// since one muxed connection carries any number of concurrent requests.
// A transport failure poisons the connection (every caller on it fails
// fast) and the next get transparently redials.
type clientPool struct {
	addr    string
	timeout time.Duration

	mu sync.Mutex
	cl *csnet.Client
}

// get returns the backend's shared client, dialing on first use or
// after the previous connection broke. A poisoned client is never
// handed out.
func (p *clientPool) get() (*csnet.Client, error) {
	p.mu.Lock()
	if p.cl != nil && !p.cl.Broken() {
		cl := p.cl
		p.mu.Unlock()
		return cl, nil
	}
	stale := p.cl
	p.cl = nil
	p.mu.Unlock()
	if stale != nil {
		// A broken connection being replaced — as opposed to the first
		// dial — is the redial the pool exists to absorb; count it.
		distM.poolRedials.Inc()
		stale.Close()
	}
	cl, err := csnet.Dial(p.addr, p.timeout) // dial outside the lock
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	if p.cl != nil && !p.cl.Broken() {
		// Lost a concurrent redial race: the pool keeps exactly one
		// connection per backend, extras are closed.
		winner := p.cl
		p.mu.Unlock()
		cl.Close()
		return winner, nil
	}
	p.cl = cl
	p.mu.Unlock()
	return cl, nil
}

// close tears down the backend connection.
func (p *clientPool) close() error {
	p.mu.Lock()
	cl := p.cl
	p.cl = nil
	p.mu.Unlock()
	if cl != nil {
		return cl.Close()
	}
	return nil
}
