package dist

import (
	"fmt"
	"slices"

	"pdcedu/internal/csnet"
	"pdcedu/internal/obs"
	"pdcedu/internal/store"
	"pdcedu/internal/trace"
)

// AntiEntropyStats describes the last Rebalance pass — chiefly how
// much of the keyspace it had to look at. A steady-state pass over a
// converged fully replicated cluster shows DigestFrames == live
// backends, everything else zero: the roots matched and nothing was
// listed.
type AntiEntropyStats struct {
	// DigestFrames counts OpTreeV exchanges (one per backend per
	// descent level that still had mismatching nodes).
	DigestFrames int
	// HashesCompared counts tree node hashes fetched across backends.
	HashesCompared int
	// BucketsDiffed counts leaf buckets needing repair: their owners
	// disagreed, or a non-owner held copies in them.
	BucketsDiffed int
	// ListingFrames counts OpRangeV exchanges (zero when nothing
	// diverged — the "no per-key listings" guarantee).
	ListingFrames int
	// KeysListed counts entries received in bucket listings.
	KeysListed int
	// ValueFetches counts OpGetV reads issued to resolve divergence.
	ValueFetches int
	// Streamed counts entries merged onto stale or missing owners.
	Streamed int
	// PurgeFrames counts OpPurgeV exchanges: at most one per non-owner
	// holding copies.
	PurgeFrames int
	// Purged counts non-owner copies removed once every owner of their
	// bucket had confirmed holding them or something newer.
	Purged int
}

// AntiEntropyStats returns the stats of the most recent Rebalance
// pass.
func (c *Cluster) AntiEntropyStats() AntiEntropyStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastAE
}

// Rebalance converges replication by Merkle anti-entropy; it is the
// cluster's one replica-repair path. Every live backend maintains a
// hash tree over its raw entry space (leaf = one hash-partitioned key
// bucket; see store.Digest), and because placement is bucket-granular,
// a bucket's owners hold identical content exactly when their leaf
// hashes agree. The pass:
//
//  1. Descends the trees: compare every backend's root, then the
//     children of each node any pair of backends disagrees on, level
//     by level (one pipelined OpTreeV burst per level), down to the
//     leaves. A bucket needs repair when its owners' leaves disagree
//     or when any non-owner's leaf is non-zero — an empty leaf hashes
//     to 0, so that non-owner holds copies. A subtree all backends
//     agree on is pruned whole when it is empty or every backend owns
//     it: a converged fully replicated cluster resolves in one root
//     exchange per backend, and a pass costs O(diff · log buckets)
//     hashes instead of O(keyspace) keys.
//  2. Lists only those buckets (OpRangeV), on their owners and on the
//     non-owners holding copies, each entry carrying version, value
//     digest, tombstone, and expiry.
//  3. Resolves each key exactly like the engines' Entry.Wins: highest
//     version, tombstone beats value on a tie, and — the hole listings
//     could not see — same-version different-digest copies are fetched
//     and ordered by bytes, mortal beats immortal on full ties.
//  4. Streams winners to every owner that is behind, divergent, or
//     missing the key: tombstones straight from the listing, values as
//     pipelined OpGetV reads merged with OpMerge — which can never
//     clobber a write that landed after the listing.
//  5. Purges each non-owner copy (OpPurgeV, one frame per non-owner)
//     once every owner of its bucket has confirmed coverage: the owner
//     listed an entry that equals or wins the copy, or answered OK or
//     Exists to the merge that streamed one. An owner unreachable in
//     the pass confirms nothing, so nothing in its buckets is purged:
//     the non-owner may hold the only copy. The server
//     purges a copy only while it is still exactly as listed, so a
//     write that reached the non-owner after the listing survives.
//
// Non-owner copies arise when every owner of a bucket was down at
// write time: the ring's next live successors accepted the write, and
// they are non-owners again once the owners are restored. The
// invariant the pass keeps: after a pass that converges, a non-owner
// holds nothing.
//
// It returns how many entries were streamed and applied. MarkDown and
// MarkUp schedule it in the background; tests and demos call it
// directly for a deterministic converge. A backend whose tree geometry
// differs from the cluster's cannot be diffed: it is dropped from the
// pass (so nothing in a bucket it owns is purged), the returned error
// names it, and dist.antientropy.geometry_mismatches counts it.
func (c *Cluster) Rebalance() (copied int, err error) {
	c.rebalanceMu.Lock()
	defer c.rebalanceMu.Unlock()
	st := AntiEntropyStats{}
	start := obs.StartTimer()
	defer func() {
		c.mu.Lock()
		c.lastAE = st
		c.mu.Unlock()
		// Fold the per-pass stats into the registry so the stats plane
		// sees cumulative anti-entropy cost; lastAE stays the per-pass
		// view the accessor and tests read.
		distM.aePasses.Inc()
		distM.aeDigestFrames.Add(uint64(st.DigestFrames))
		distM.aeListingFrames.Add(uint64(st.ListingFrames))
		distM.aeKeysListed.Add(uint64(st.KeysListed))
		distM.aeStreamed.Add(uint64(st.Streamed))
		distM.aePurged.Add(uint64(st.Purged))
		distM.aePassLatency.ObserveSince(start)
	}()

	ctx, root := c.startAE("rebalance")
	defer func() {
		root.S.Err = err != nil
		root.Finish()
	}()

	n := len(c.pools)
	var firstErr error
	noteErr := func(b int, err error) {
		if firstErr == nil {
			firstErr = fmt.Errorf("dist: rebalance backend %d (%s): %w", b, c.pools[b].addr, err)
		}
	}
	clients := make([]*csnet.Client, n)
	live := make([]int, 0, n)
	for b := 0; b < n; b++ {
		if c.IsDown(b) {
			continue
		}
		cl, cerr := c.pools[b].get()
		if cerr != nil {
			noteErr(b, cerr)
			continue
		}
		clients[b] = cl
		live = append(live, b)
	}
	if len(live) == 0 {
		return 0, firstErr
	}

	divergent := c.descendTrees(clients, live, &st, noteErr)
	if len(divergent) == 0 {
		return 0, firstErr
	}
	st.BucketsDiffed = len(divergent)

	holders := c.listDivergent(clients, divergent, &st, noteErr)
	copied, acked := c.streamWinners(ctx, clients, divergent, holders, &st, noteErr)
	st.Streamed = copied
	c.purgeStrays(clients, divergent, holders, acked, &st, noteErr)
	return copied, firstErr
}

// repairBucket is one bucket the descent found needing repair: its
// owners, fixed once per pass so every step plans against the same
// placement, and the non-owners whose leaf showed copies.
type repairBucket struct {
	owners, strays []int
}

// descendTrees walks every live backend's Merkle tree in lock-step
// from the root, returning the buckets that need repair. A backend
// reporting a different tree geometry than the cluster places by is
// dropped from the pass: diffing against it would be meaningless.
func (c *Cluster) descendTrees(clients []*csnet.Client, live []int, st *AntiEntropyStats, noteErr func(int, error)) map[int]repairBucket {
	// With every live backend an owner of every bucket, agreement alone
	// proves a subtree needs nothing; otherwise an agreeing non-empty
	// subtree still hides non-owner copies.
	everyOwns := c.rf >= c.ring.Nodes()
	divergent := map[int]repairBucket{}
	frontier := []uint32{1}
	for len(frontier) > 0 {
		body := csnet.EncodeBucketList(frontier)
		type sent struct {
			call    *csnet.Call
			backend int
		}
		calls := make([]sent, 0, len(live))
		for _, b := range live {
			if clients[b] == nil {
				continue
			}
			calls = append(calls, sent{clients[b].Send(csnet.Request{Op: csnet.OpTreeV, Value: body}), b})
			st.DigestFrames++
		}
		hashes := make(map[int]map[uint32]uint64, len(calls))
		for _, s := range calls {
			resp, rerr := s.call.ResponseV()
			if rerr != nil {
				noteErr(s.backend, rerr)
				clients[s.backend] = nil // conn poisoned; drop from the pass
				continue
			}
			if resp.Status != csnet.StatusOK {
				noteErr(s.backend, fmt.Errorf("treev status %s: %s", resp.Status, resp.Value))
				clients[s.backend] = nil
				continue
			}
			buckets, nodes, derr := csnet.DecodeTree(resp.Value)
			if derr != nil {
				noteErr(s.backend, derr)
				clients[s.backend] = nil
				continue
			}
			if buckets != c.buckets {
				distM.aeGeometry.Inc()
				noteErr(s.backend, fmt.Errorf("tree geometry %d buckets, cluster places by %d", buckets, c.buckets))
				clients[s.backend] = nil
				continue
			}
			m := make(map[uint32]uint64, len(nodes))
			for _, nd := range nodes {
				m[nd.Node] = nd.Hash
			}
			hashes[s.backend] = m
			st.HashesCompared += len(nodes)
		}
		var next []uint32
		for _, id := range frontier {
			if h, same := agreeAll(hashes, id); same && (h == 0 || everyOwns) {
				// Every responding backend holds an identical subtree that
				// is empty or owned by all of them, so nothing under this
				// node can need repair or purging. This is the pruning
				// that makes a converged cluster's pass O(backends) frames.
				continue
			}
			if int(id) < c.buckets {
				next = append(next, 2*id, 2*id+1)
				continue
			}
			bucket := int(id) - c.buckets
			rb := repairBucket{owners: c.ownersOf(bucket)}
			for b, m := range hashes {
				if m[id] != 0 && !slices.Contains(rb.owners, b) {
					rb.strays = append(rb.strays, b)
				}
			}
			if len(rb.strays) > 0 || !agreeAmong(hashes, id, rb.owners) {
				divergent[bucket] = rb
			}
		}
		frontier = next
	}
	return divergent
}

// agreeAll reports whether every backend that answered holds the same
// hash for node id, and which.
func agreeAll(hashes map[int]map[uint32]uint64, id uint32) (hash uint64, same bool) {
	seen := false
	for _, m := range hashes {
		h := m[id]
		if !seen {
			hash, seen = h, true
		} else if h != hash {
			return 0, false
		}
	}
	return hash, true
}

// agreeAmong reports whether the listed backends (those that answered)
// hold the same hash for node id.
func agreeAmong(hashes map[int]map[uint32]uint64, id uint32, backends []int) bool {
	var first uint64
	seen := false
	for _, b := range backends {
		m, ok := hashes[b]
		if !ok {
			continue
		}
		h := m[id]
		if !seen {
			first, seen = h, true
		} else if h != first {
			return false
		}
	}
	return true
}

// holderDigest is one backend's listed copy of a key.
type holderDigest struct {
	backend int
	entry   csnet.KeyDigest
}

// listDivergent fetches the listings of the buckets needing repair:
// each is requested from every reachable owner and from the non-owners
// holding copies, one pipelined OpRangeV per backend carrying all its
// buckets. The result groups listed copies per key.
func (c *Cluster) listDivergent(clients []*csnet.Client, divergent map[int]repairBucket, st *AntiEntropyStats, noteErr func(int, error)) map[string][]holderDigest {
	perBackend := map[int][]uint32{}
	for bkt, rb := range divergent {
		for _, b := range append(slices.Clip(rb.owners), rb.strays...) {
			if clients[b] != nil {
				perBackend[b] = append(perBackend[b], uint32(bkt))
			}
		}
	}
	type sent struct {
		call    *csnet.Call
		backend int
	}
	calls := make([]sent, 0, len(perBackend))
	for b, ids := range perBackend {
		calls = append(calls, sent{clients[b].Send(csnet.Request{Op: csnet.OpRangeV, Value: csnet.EncodeBucketList(ids)}), b})
		st.ListingFrames++
	}
	holders := map[string][]holderDigest{}
	for _, s := range calls {
		resp, rerr := s.call.ResponseV()
		if rerr != nil {
			noteErr(s.backend, rerr)
			clients[s.backend] = nil
			continue
		}
		if resp.Status != csnet.StatusOK {
			noteErr(s.backend, fmt.Errorf("rangev status %s: %s", resp.Status, resp.Value))
			continue
		}
		listing, derr := csnet.DecodeRangeV(resp.Value)
		if derr != nil {
			noteErr(s.backend, derr)
			continue
		}
		st.KeysListed += len(listing)
		for _, e := range listing {
			// Observe every imported version (the same invariant as the
			// read/write paths): a coordinator whose wall clock lags must
			// advance past listed state or its next Set could stamp under
			// it and silently lose everywhere.
			c.clock.Observe(e.Version)
			holders[e.Key] = append(holders[e.Key], holderDigest{backend: s.backend, entry: e})
		}
	}
	return holders
}

// winsListed orders two listed copies the way store.Entry.Wins orders
// resident entries, to the extent listings allow: version, then
// tombstone-beats-value, then — where Wins compares value bytes — the
// digest only says *whether* they differ, so equal-version live copies
// with different digests return unordered=false and the caller fetches
// the bytes. Mortal beats immortal on the remaining tie.
func winsListed(e, cur csnet.KeyDigest) (wins, ordered bool) {
	if e.Version != cur.Version {
		return e.Version > cur.Version, true
	}
	if e.Tombstone != cur.Tombstone {
		return e.Tombstone, true
	}
	if !e.Tombstone && e.Digest != cur.Digest {
		return false, false // value order unknowable from digests
	}
	if e.ExpireAt != cur.ExpireAt {
		if e.ExpireAt == 0 {
			return false, true
		}
		return cur.ExpireAt == 0 || e.ExpireAt < cur.ExpireAt, true
	}
	return false, true
}

// listedView is e as a bucket listing would report it under key.
func listedView(key string, e store.Entry) csnet.KeyDigest {
	return csnet.KeyDigest{Key: key, Version: e.Version, Digest: store.ValueDigest(e.Value), Tombstone: e.Tombstone, ExpireAt: e.ExpireAt}
}

// covers reports whether a holder of x needs nothing from copy s of
// the same key: x is s, or provably wins it.
func covers(x, s csnet.KeyDigest) bool {
	wins, ordered := winsListed(x, s)
	return x == s || (ordered && wins)
}

// streamWinners resolves each divergent key to its Entry.Wins winner
// and merges it onto every owner holding less. Tombstone winners
// stream straight from the listing; value winners are read once
// (pipelined per source backend) and merged at the version actually
// read — which may be newer than the listing's, and merge keeps every
// target at least that new. Same-version different-digest splits fetch
// one copy per digest and let Entry.Wins order the bytes. acked
// records, per key and owner, the listed copies each acknowledged
// merge proves the owner now covers.
func (c *Cluster) streamWinners(ctx trace.Context, clients []*csnet.Client, divergent map[int]repairBucket, holders map[string][]holderDigest, st *AntiEntropyStats, noteErr func(int, error)) (copied int, acked map[string]map[int][]csnet.KeyDigest) {
	type job struct {
		key     string
		winner  csnet.KeyDigest
		source  int   // backend to read a value winner from
		targets []int // owners to merge onto
	}
	var tombs []job
	reads := map[int][]job{} // value reads grouped by source backend
	var splits []job         // same-version digest splits: read from every distinct holder
	for key, list := range holders {
		// The Wins-maximal listed copy; splits surface as unordered.
		winner := list[0]
		split := false
		for _, h := range list[1:] {
			w, ordered := winsListed(h.entry, winner.entry)
			if !ordered {
				split = true
				continue
			}
			if w {
				winner = h
				split = false
			}
		}
		// Re-scan against the final winner: an earlier copy may tie it.
		if !split {
			for _, h := range list {
				if _, ordered := winsListed(h.entry, winner.entry); !ordered {
					split = true
					break
				}
			}
		}
		var targets []int
		for _, o := range divergent[store.BucketOf(key, c.buckets)].owners {
			if clients[o] == nil {
				continue
			}
			var cand *csnet.KeyDigest
			for i := range list {
				if list[i].backend == o {
					cand = &list[i].entry
					break
				}
			}
			switch {
			case cand == nil:
				targets = append(targets, o) // hole
			case split && cand.Version == winner.entry.Version && !cand.Tombstone:
				targets = append(targets, o) // divergent bytes: all holders merge the winner
			case *cand != winner.entry:
				targets = append(targets, o) // behind, or losing a tie-break
			}
		}
		if len(targets) == 0 {
			continue
		}
		j := job{key: key, winner: winner.entry, source: winner.backend, targets: targets}
		switch {
		case split:
			splits = append(splits, j)
		case winner.entry.Tombstone:
			tombs = append(tombs, j)
		default:
			reads[winner.backend] = append(reads[winner.backend], j)
		}
	}

	type mergeCall struct {
		call   *csnet.Call
		sp     trace.Active
		key    string
		target int
		covers []csnet.KeyDigest // listed copies the merged entry equals or wins
	}
	var copies []mergeCall
	merge := func(target int, key string, e store.Entry, covered ...csnet.KeyDigest) {
		// A streamed winner is newer state this coordinator may never
		// have read — written through a peer coordinator — so the cache
		// must not keep serving anything older.
		c.cacheSupersede(key, e.Version)
		// Each repair merge is a child span of the pass: a waterfall of a
		// slow pass shows exactly which owners were converged and at what
		// cost per stream.
		sp := c.tracer.StartSpan(ctx, trace.KindAE, "MERGE")
		if sp.Live() {
			sp.S.Peer = c.pools[target].addr
		}
		req := csnet.Request{Op: csnet.OpMerge, Key: key, Value: e.Value, Version: e.Version, ExpireAt: e.ExpireAt, Trace: sp.Context()}
		if e.Tombstone {
			req.Flags |= csnet.FlagTombstone
			req.Value = nil
		}
		copies = append(copies, mergeCall{call: clients[target].Send(req), sp: sp, key: key, target: target,
			covers: append(slices.Clip(covered), listedView(key, e))})
	}
	// Tombstones need no source read: the listing carries everything
	// (version and — for expiry tombstones — the expiry for GC aging).
	for _, j := range tombs {
		for _, t := range j.targets {
			merge(t, j.key, store.Entry{Version: j.winner.Version, Tombstone: true, ExpireAt: j.winner.ExpireAt})
		}
	}
	// Plain value winners: one pipelined GetV burst per source backend.
	for src, list := range reads {
		calls := make([]*csnet.Call, len(list))
		for i, j := range list {
			calls[i] = clients[src].Send(csnet.Request{Op: csnet.OpGetV, Key: j.key})
			st.ValueFetches++
		}
		for i, j := range list {
			resp, rerr := calls[i].ResponseV()
			if rerr != nil {
				noteErr(src, rerr) // conn poisoned; the next kick retries
				break
			}
			if resp.Status != csnet.StatusOK {
				continue // deleted or expired since the listing; next pass converges
			}
			c.clock.Observe(resp.Version)
			for _, t := range j.targets {
				merge(t, j.key, store.Entry{Value: resp.Value, Version: resp.Version, ExpireAt: resp.ExpireAt})
			}
		}
	}
	// Digest splits: fetch one copy per distinct digest and let
	// Entry.Wins order the actual bytes — the divergence listings alone
	// could never close.
	for _, j := range splits {
		seen := map[uint64]bool{}
		var fetches []*csnet.Call
		var sources []csnet.KeyDigest // the listed copy each fetch reads
		for _, h := range holders[j.key] {
			if h.entry.Version != j.winner.Version || h.entry.Tombstone || seen[h.entry.Digest] || clients[h.backend] == nil {
				continue
			}
			seen[h.entry.Digest] = true
			fetches = append(fetches, clients[h.backend].Send(csnet.Request{Op: csnet.OpGetV, Key: j.key}))
			sources = append(sources, h.entry)
			st.ValueFetches++
		}
		var best store.Entry
		have := false
		// best wins or equals every copy read, and each read copy is at
		// least its listing, so best covers those listings.
		var beaten []csnet.KeyDigest
		for i, call := range fetches {
			resp, rerr := call.ResponseV()
			if rerr != nil || resp.Status != csnet.StatusOK {
				continue
			}
			c.clock.Observe(resp.Version)
			e := store.Entry{Value: resp.Value, Version: resp.Version, ExpireAt: resp.ExpireAt}
			if !have || e.Wins(best) {
				best, have = e, true
			}
			beaten = append(beaten, sources[i])
		}
		if !have {
			continue // all holders vanished mid-pass; next pass converges
		}
		for _, t := range j.targets {
			merge(t, j.key, best, beaten...)
		}
	}
	acked = map[string]map[int][]csnet.KeyDigest{}
	for _, mc := range copies {
		resp, rerr := mc.call.ResponseV()
		if rerr == nil && resp.Status == csnet.StatusOK {
			copied++
		}
		if rerr == nil && (resp.Status == csnet.StatusOK || resp.Status == csnet.StatusExists) {
			// The owner now holds the merged entry or a newer one.
			if acked[mc.key] == nil {
				acked[mc.key] = map[int][]csnet.KeyDigest{}
			}
			acked[mc.key][mc.target] = append(acked[mc.key][mc.target], mc.covers...)
		}
		mc.sp.S.Err = rerr != nil
		mc.sp.Finish()
	}
	return copied, acked
}

// purgeStrays removes the non-owner copies every owner of their bucket
// now covers, in one pipelined OpPurgeV per non-owner. An owner covers
// a copy when its listing, or a merge it acknowledged, holds an entry
// that equals or wins the copy — so an owner that was unreachable in
// the pass covers nothing, and its buckets keep their non-owner
// copies, which may be the only ones.
func (c *Cluster) purgeStrays(clients []*csnet.Client, divergent map[int]repairBucket, holders map[string][]holderDigest, acked map[string]map[int][]csnet.KeyDigest, st *AntiEntropyStats, noteErr func(int, error)) {
	ownerCovers := func(key string, o int, s csnet.KeyDigest) bool {
		for _, h := range holders[key] {
			if h.backend == o && covers(h.entry, s) {
				return true
			}
		}
		for _, x := range acked[key][o] {
			if covers(x, s) {
				return true
			}
		}
		return false
	}
	perBackend := map[int][]csnet.KeyDigest{}
	for key, list := range holders {
		owners := divergent[store.BucketOf(key, c.buckets)].owners
		if len(owners) == 0 {
			continue
		}
		for _, h := range list {
			if slices.Contains(owners, h.backend) || clients[h.backend] == nil {
				continue
			}
			if !slices.ContainsFunc(owners, func(o int) bool { return !ownerCovers(key, o, h.entry) }) {
				perBackend[h.backend] = append(perBackend[h.backend], h.entry)
			}
		}
	}
	type sent struct {
		call    *csnet.Call
		backend int
	}
	calls := make([]sent, 0, len(perBackend))
	for b, copies := range perBackend {
		body, err := csnet.EncodeRangeV(copies)
		if err != nil {
			noteErr(b, err)
			continue
		}
		calls = append(calls, sent{clients[b].Send(csnet.Request{Op: csnet.OpPurgeV, Value: body}), b})
		st.PurgeFrames++
	}
	for _, s := range calls {
		resp, rerr := s.call.ResponseV()
		if rerr != nil {
			noteErr(s.backend, rerr)
			continue
		}
		if resp.Status != csnet.StatusOK {
			noteErr(s.backend, fmt.Errorf("purgev status %s: %s", resp.Status, resp.Value))
			continue
		}
		purged, derr := csnet.DecodeBucketList(resp.Value)
		if derr != nil {
			noteErr(s.backend, derr)
			continue
		}
		st.Purged += len(purged)
	}
}
