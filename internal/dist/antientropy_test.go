package dist

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pdcedu/internal/csnet"
	"pdcedu/internal/obs"
	"pdcedu/internal/store"
)

// startKVCluster boots n KV backends (optionally with custom engines)
// and a cluster over them.
func startKVCluster(t *testing.T, n int, cfg ClusterConfig, mkEngine func(i int) store.Engine) ([]*csnet.KVHandler, *Cluster) {
	t.Helper()
	kvs := make([]*csnet.KVHandler, n)
	addrs := make([]string, n)
	for i := range kvs {
		if mkEngine != nil {
			kvs[i] = csnet.NewKVHandlerOn(mkEngine(i))
		} else {
			kvs[i] = csnet.NewKVHandler()
		}
		srv := csnet.NewServer(kvs[i], 64)
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = addr
		t.Cleanup(srv.Shutdown)
	}
	cfg.Addrs = addrs
	if cfg.Timeout == 0 {
		cfg.Timeout = 2 * time.Second
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return kvs, c
}

// TestAntiEntropySteadyStateFrames is the acceptance pin for the
// tentpole: one anti-entropy pass over a converged 10k-key cluster
// exchanges O(backends) digest frames and zero per-key listings, and
// after a small divergence the listing cost tracks the diff, not the
// keyspace.
func TestAntiEntropySteadyStateFrames(t *testing.T) {
	const n, keys = 3, 10_000
	kvs, c := startKVCluster(t, n, ClusterConfig{Replication: n, WriteQuorum: n}, nil)
	ks := make([]string, keys)
	vs := make([][]byte, keys)
	for i := range ks {
		ks[i] = fmt.Sprintf("outcome-%d", i)
		vs[i] = []byte(fmt.Sprintf("score-%d", i%100))
	}
	if err := c.MSet(ks, vs); err != nil {
		t.Fatal(err)
	}

	// First pass settles any noise; the second is the steady state.
	if _, err := c.Rebalance(); err != nil {
		t.Fatal(err)
	}
	copied, err := c.Rebalance()
	if err != nil || copied != 0 {
		t.Fatalf("steady-state pass = %d %v, want 0 nil", copied, err)
	}
	st := c.AntiEntropyStats()
	if st.DigestFrames != n {
		t.Errorf("steady-state digest frames = %d, want %d (one root exchange per backend)", st.DigestFrames, n)
	}
	if st.ListingFrames != 0 || st.KeysListed != 0 || st.ValueFetches != 0 {
		t.Errorf("steady-state pass listed keys: %+v", st)
	}

	// Damage a handful of keys on one backend: the repair pass must
	// list only the divergent buckets — far below the keyspace.
	const holes = 5
	for i := 0; i < holes; i++ {
		kvs[1].Engine().Purge(ks[i*17])
	}
	copied, err = c.Rebalance()
	if err != nil || copied != holes {
		t.Fatalf("repair pass = %d %v, want %d nil", copied, err, holes)
	}
	st = c.AntiEntropyStats()
	if st.BucketsDiffed == 0 || st.BucketsDiffed > holes {
		t.Errorf("repair pass diffed %d buckets, want 1..%d", st.BucketsDiffed, holes)
	}
	if st.KeysListed == 0 || st.KeysListed > keys/10 {
		t.Errorf("repair pass listed %d keys for %d holes over %d keys — cost should track the diff", st.KeysListed, holes, keys)
	}
	for i := 0; i < holes; i++ {
		if _, ok := kvs[1].Engine().Get(ks[i*17]); !ok {
			t.Fatalf("hole %d not repaired", i)
		}
	}
}

// TestAntiEntropyStrandedCopy pins the copy an owners-only comparison
// cannot see: a key whose only copies sit on non-owners, as when every
// owner was down at write time. One pass must move it onto both owners
// and purge it from both non-owners; the next pass has nothing to do.
func TestAntiEntropyStrandedCopy(t *testing.T) {
	const n, key = 4, "stranded"
	kvs, c := startKVCluster(t, n, ClusterConfig{Replication: 2}, nil)
	owners := c.replicaSet(key)
	only := store.Entry{Value: []byte("only-copy"), Version: kvs[0].Engine().Clock().Next()}
	var nonOwners []int
	for b := 0; b < n; b++ {
		if !slices.Contains(owners, b) {
			nonOwners = append(nonOwners, b)
			kvs[b].Engine().Merge(key, only)
		}
	}

	copied, err := c.Rebalance()
	if err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	st := c.AntiEntropyStats()
	if copied != len(owners) || st.Purged != len(nonOwners) || st.PurgeFrames != len(nonOwners) {
		t.Fatalf("pass streamed %d, stats %+v; want %d streamed and %d purged in %d frames",
			copied, st, len(owners), len(nonOwners), len(nonOwners))
	}
	for _, o := range owners {
		if e, ok := kvs[o].Engine().Load(key); !ok || string(e.Value) != "only-copy" || e.Version != only.Version {
			t.Fatalf("owner %d = %+v %v, want the stranded copy", o, e, ok)
		}
	}
	for _, b := range nonOwners {
		if e, ok := kvs[b].Engine().Load(key); ok {
			t.Fatalf("non-owner %d still holds %+v", b, e)
		}
	}

	copied, err = c.Rebalance()
	if st := c.AntiEntropyStats(); err != nil || copied != 0 || st.KeysListed != 0 || st.Purged != 0 {
		t.Fatalf("next pass = %d %v, stats %+v; want nothing streamed, listed or purged", copied, err, st)
	}
}

// refusingEngine acks no writes while refuse is set: its Err reports a
// poisoned log, so the KV handler answers every write with StatusError.
type refusingEngine struct {
	*store.Sharded
	refuse atomic.Bool
}

func (e *refusingEngine) Err() error {
	if e.refuse.Load() {
		return errors.New("log poisoned")
	}
	return nil
}

// TestAntiEntropyPurgeWaitsForEveryOwner pins the purge's safety rule:
// a non-owner's copy is purged only once every owner has confirmed
// coverage. An owner that holds an older copy and fails the merge of
// the newer one has confirmed nothing, so the newer copy stays on the
// non-owners until a later pass lands it.
func TestAntiEntropyPurgeWaitsForEveryOwner(t *testing.T) {
	const n, key = 4, "stranded"
	engs := make([]*refusingEngine, n)
	kvs, c := startKVCluster(t, n, ClusterConfig{Replication: 2}, func(i int) store.Engine {
		engs[i] = &refusingEngine{Sharded: store.NewSharded(store.Options{})}
		return engs[i]
	})
	owners := c.replicaSet(key)
	old := store.Entry{Value: []byte("old"), Version: kvs[0].Engine().Clock().Next()}
	newer := store.Entry{Value: []byte("newer"), Version: old.Version + 1}
	var nonOwners []int
	for b := 0; b < n; b++ {
		if slices.Contains(owners, b) {
			kvs[b].Engine().Merge(key, old)
		} else {
			nonOwners = append(nonOwners, b)
			kvs[b].Engine().Merge(key, newer)
		}
	}
	engs[owners[1]].refuse.Store(true)

	copied, _ := c.Rebalance()
	if st := c.AntiEntropyStats(); copied != 1 || st.Purged != 0 || st.PurgeFrames != 0 {
		t.Fatalf("pass with owner %d refusing = %d streamed, stats %+v; want 1 streamed, nothing purged", owners[1], copied, st)
	}
	for _, b := range nonOwners {
		if e, ok := kvs[b].Engine().Load(key); !ok || e.Version != newer.Version {
			t.Fatalf("non-owner %d = %+v %v, want its newer copy kept", b, e, ok)
		}
	}

	// The refused merge still landed in memory (only its ack failed),
	// so this pass finds the owner covered by its listing.
	engs[owners[1]].refuse.Store(false)
	if _, err := c.Rebalance(); err != nil {
		t.Fatal(err)
	}
	if st := c.AntiEntropyStats(); st.Purged != len(nonOwners) {
		t.Fatalf("pass after recovery stats %+v, want %d purged", st, len(nonOwners))
	}
	for _, o := range owners {
		if e, ok := kvs[o].Engine().Load(key); !ok || e.Version != newer.Version {
			t.Fatalf("owner %d = %+v %v, want the newer copy", o, e, ok)
		}
	}
}

// TestAntiEntropyMarkUpPin pins what a flapping backend costs: after
// MarkDown, 50 writes and MarkUp over 10k keys at rf=2, one pass lists
// only the buckets whose owners disagree or that hold non-owner copies
// — never every backend's keyspace — in at most one listing and one
// purge frame per backend, and the next pass lists and purges nothing.
func TestAntiEntropyMarkUpPin(t *testing.T) {
	const n, keys, writes, drained = 4, 10_000, 50, 1
	kvs, c := startKVCluster(t, n, ClusterConfig{Replication: 2}, nil)
	// Stop the background rebalancer and run the passes MarkDown and
	// MarkUp would schedule by hand, so the measured pass is this test's.
	c.closeOnce.Do(func() { close(c.stop) })
	<-c.rebalanceDone

	ks := make([]string, keys)
	vs := make([][]byte, keys)
	for i := range ks {
		ks[i] = fmt.Sprintf("flap-%d", i)
		vs[i] = []byte(fmt.Sprintf("v-%d", i))
	}
	if err := c.MSet(ks, vs); err != nil {
		t.Fatal(err)
	}
	c.MarkDown(drained)
	if _, err := c.Rebalance(); err != nil {
		t.Fatalf("pass after MarkDown: %v", err)
	}
	for i := 0; i < writes; i++ {
		if err := c.Set(ks[i*(keys/writes)], []byte(fmt.Sprintf("new-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	c.MarkUp(drained)

	// From the engines: the buckets the pass may list, and how many
	// entries listing them on their owners and copy-holding non-owners
	// returns.
	digests := make([]*store.Digest, n)
	for b := range digests {
		digests[b] = kvs[b].Engine().Digest()
	}
	needRepair, bound, total := 0, 0, 0
	for b := range kvs {
		total += len(kvs[b].Engine().Keys())
	}
	for bkt := 0; bkt < c.buckets; bkt++ {
		owners := c.ownersOf(bkt)
		var holders []int
		disagree := false
		for b := 0; b < n; b++ {
			leaf := digests[b].Leaf(bkt)
			switch {
			case slices.Contains(owners, b):
				holders = append(holders, b)
				disagree = disagree || leaf != digests[owners[0]].Leaf(bkt)
			case leaf != 0:
				holders = append(holders, b)
				disagree = true
			}
		}
		if !disagree {
			continue
		}
		needRepair++
		for _, b := range holders {
			kvs[b].Engine().RangeBucket(bkt, func(string, store.Entry) bool { bound++; return true })
		}
	}

	if _, err := c.Rebalance(); err != nil {
		t.Fatalf("pass after MarkUp: %v", err)
	}
	st := c.AntiEntropyStats()
	t.Logf("pass after MarkUp: %+v; %d buckets need repair, %d keys listable, %d held", st, needRepair, bound, total)
	live := c.Live()
	if st.ListingFrames > live || st.PurgeFrames > live {
		t.Errorf("listing frames %d, purge frames %d; want each <= %d live backends", st.ListingFrames, st.PurgeFrames, live)
	}
	if levels := bits.Len(uint(c.buckets)); st.DigestFrames > live*levels {
		t.Errorf("digest frames %d, want <= %d (live x (log2 buckets + 1))", st.DigestFrames, live*levels)
	}
	if st.BucketsDiffed != needRepair || st.KeysListed > bound || bound >= total {
		t.Errorf("pass diffed %d buckets and listed %d keys; want %d buckets and <= %d keys, below the %d held in all",
			st.BucketsDiffed, st.KeysListed, needRepair, bound, total)
	}
	if st.Purged == 0 {
		t.Errorf("pass purged nothing: %+v", st)
	}

	copied, err := c.Rebalance()
	if st := c.AntiEntropyStats(); err != nil || copied != 0 || st.KeysListed != 0 || st.Purged != 0 || st.PurgeFrames != 0 {
		t.Fatalf("next pass = %d %v, stats %+v; want nothing listed or purged", copied, err, st)
	}
}

// TestAntiEntropySameVersionSplitConverges pins the divergence class
// the digests exist for: two replicas holding the same version with
// different bytes converge to the Entry.Wins (larger) value.
func TestAntiEntropySameVersionSplitConverges(t *testing.T) {
	kvs, _, addrs, c := startVersionedPair(t)
	cl0, err := csnet.Dial(addrs[0], time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl0.Close()
	cl1, err := csnet.Dial(addrs[1], time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl1.Close()
	if _, _, err := cl0.SetV("k", []byte("aaa"), 100); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl1.SetV("k", []byte("zzz"), 100); err != nil {
		t.Fatal(err)
	}
	copied, err := c.Rebalance()
	if err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	if copied == 0 {
		t.Fatal("split went unstreamed — the divergence the old listings rebalancer could not see")
	}
	if st := c.AntiEntropyStats(); st.ValueFetches < 2 {
		t.Errorf("stats = %+v, want both split copies fetched", st)
	}
	for b, kv := range kvs {
		e, ok := kv.Engine().Get("k")
		if !ok || string(e.Value) != "zzz" || e.Version != 100 {
			t.Fatalf("backend %d after split repair = %+v %v, want zzz@100", b, e, ok)
		}
	}
	// Converged: the next pass is digest-only.
	if copied, err = c.Rebalance(); err != nil || copied != 0 {
		t.Fatalf("steady-state pass = %d %v, want 0 nil", copied, err)
	}
	if st := c.AntiEntropyStats(); st.ListingFrames != 0 {
		t.Errorf("steady-state pass still listing: %+v", st)
	}
}

// TestRebalanceGeometryMismatch pins the mismatch path: a backend
// whose engine was built with a different Merkle bucket count cannot
// be tree-diffed, so the pass drops it with an error naming it, counts
// it on /metrics, and still converges the other backends. Dropped, it
// is an unreachable owner: copies stranded in a bucket it owns move to
// the other owner but stay on the non-owners, which may hold the only
// copy.
func TestRebalanceGeometryMismatch(t *testing.T) {
	const n, odd = 4, 3
	kvs, c := startKVCluster(t, n, ClusterConfig{Replication: 2, WriteQuorum: 1},
		func(i int) store.Engine {
			if i == odd {
				return store.NewSharded(store.Options{Shards: 8, MerkleBuckets: 64})
			}
			return store.NewSharded(store.Options{})
		})
	var healthy, shared string
	for i := 0; healthy == "" || shared == ""; i++ {
		k := fmt.Sprintf("geo-%d", i)
		if !slices.Contains(c.replicaSet(k), odd) {
			healthy = k
		} else {
			shared = k
		}
	}
	if err := c.Set(healthy, []byte("v")); err != nil {
		t.Fatal(err)
	}
	hole := c.replicaSet(healthy)[1]
	kvs[hole].Engine().Purge(healthy)
	only := store.Entry{Value: []byte("only-copy"), Version: kvs[0].Engine().Clock().Next()}
	var nonOwners []int
	for b := 0; b < n; b++ {
		if !slices.Contains(c.replicaSet(shared), b) {
			nonOwners = append(nonOwners, b)
			kvs[b].Engine().Merge(shared, only)
		}
	}

	mismatches := obs.Default().Counter("dist.antientropy.geometry_mismatches")
	before := mismatches.Value()
	copied, err := c.Rebalance()
	if err == nil {
		t.Fatal("geometry mismatch unreported")
	}
	if want := fmt.Sprintf("backend %d (%s)", odd, c.pools[odd].addr); !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name %s", err, want)
	}
	if got := mismatches.Value() - before; got != 1 {
		t.Fatalf("geometry_mismatches grew by %d, want 1", got)
	}
	if copied != 2 {
		t.Fatalf("pass streamed %d, want 2 (the hole, and the stranded copy's reachable owner)", copied)
	}
	if _, ok := kvs[hole].Engine().Get(healthy); !ok {
		t.Fatal("the matching backends did not converge")
	}
	for _, b := range nonOwners {
		if _, ok := kvs[b].Engine().Load(shared); !ok {
			t.Fatalf("non-owner %d purged a copy while owner %d was unreachable", b, odd)
		}
	}
	if st := c.AntiEntropyStats(); st.Purged != 0 || st.PurgeFrames != 0 {
		t.Fatalf("pass purged with an owner unreachable: %+v", st)
	}
}

// TestClusterTTLReplicatedMortal pins the TTL plumb: SetTTL/MSetTTL
// stamp one absolute expiry into every replica's copy — including
// copies delivered by hint replay — so no replica holds an immortal
// version of a mortal key.
func TestClusterTTLReplicatedMortal(t *testing.T) {
	kvs, srvs, addrs, c := startVersionedPair(t)
	if err := c.SetTTL("session", []byte("tok"), time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := c.MSetTTL([]string{"m1", "m2"}, [][]byte{[]byte("a"), []byte("b")}, time.Hour); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"session", "m1", "m2"} {
		var exps [2]int64
		for b, kv := range kvs {
			e, ok := kv.Engine().Load(key)
			if !ok || e.ExpireAt == 0 {
				t.Fatalf("backend %d: %q = %+v %v, want a mortal copy", b, key, e, ok)
			}
			exps[b] = e.ExpireAt
		}
		if exps[0] != exps[1] {
			t.Fatalf("%q replicas disagree on expiry: %d vs %d", key, exps[0], exps[1])
		}
	}

	// A TTL'd write hinted past an outage must replay mortal too.
	srvs[1].Shutdown()
	if err := c.SetTTL("hinted", []byte("tok"), time.Hour); err != nil {
		t.Fatalf("degraded SetTTL: %v", err)
	}
	srvs[1] = csnet.NewServer(kvs[1], 16)
	if _, err := srvs[1].Start(addrs[1]); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srvs[1].Shutdown)
	c.MarkDown(1)
	c.MarkUp(1)
	if got := c.Hints(1); got != 0 {
		t.Fatalf("Hints(1) = %d after replay, want 0", got)
	}
	e, ok := kvs[1].Engine().Load("hinted")
	if !ok || e.ExpireAt == 0 {
		t.Fatalf("hint-replayed copy = %+v %v, want mortal", e, ok)
	}

	// End to end: a short TTL actually expires at the cluster API.
	if err := c.SetTTL("blink", []byte("x"), 50*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, ok, err := c.Get("blink")
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("TTL'd key still readable 5s past its expiry")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestReadRepairKeepsTombstoneExpiry pins the Get path fix that rides
// with expiry tombstones: the tombstone a miss repairs onto a stale
// holder must carry its ExpireAt, or the holder would age it from the
// (older) write time and could GC it before its own copy had expired.
func TestReadRepairKeepsTombstoneExpiry(t *testing.T) {
	kvs, _, _, c := startVersionedPair(t)
	// Find a key whose first replica is backend 0 (balancer-less Get
	// order), so the Get sees the tombstone before the stale value.
	key := ""
	for i := 0; i < 256; i++ {
		k := fmt.Sprintf("exp-probe-%d", i)
		if set := c.replicaSet(k); len(set) == 2 && set[0] == 0 {
			key = k
			break
		}
	}
	if key == "" {
		t.Fatal("no key with backend 0 first in 256 probes")
	}
	exp := time.Now().Add(-time.Minute).UnixNano()
	ver := kvs[0].Engine().Clock().Next()
	kvs[0].Engine().Merge(key, store.Entry{Value: []byte("v"), Version: ver, ExpireAt: exp})
	kvs[0].Engine().Get(key) // expire into a tombstone
	kvs[1].Engine().Merge(key, store.Entry{Value: []byte("zombie"), Version: ver - 1})
	if _, ok, err := c.Get(key); err != nil || ok {
		t.Fatalf("Get = %v %v, want miss", ok, err)
	}
	repaired, ok := kvs[1].Engine().Load(key)
	if !ok || !repaired.Tombstone || repaired.Version != ver || repaired.ExpireAt != exp {
		t.Fatalf("repaired tombstone = %+v %v, want tombstone@%d with ExpireAt %d", repaired, ok, ver, exp)
	}
}

// TestAntiEntropyExpiredImmortalConverges pins the expiry leg of the
// chaos classes deterministically: one replica's copy expired into a
// tombstone, the other still holds the same version immortal — the
// cluster must converge to deleted, never resurrect.
func TestAntiEntropyExpiredImmortalConverges(t *testing.T) {
	kvs, _, _, c := startVersionedPair(t)
	ver := kvs[0].Engine().Clock().Next()
	// Backend 0: mortal copy, already expired into a tombstone.
	kvs[0].Engine().Merge("k", store.Entry{Value: []byte("v"), Version: ver, ExpireAt: time.Now().Add(-time.Minute).UnixNano()})
	if _, ok := kvs[0].Engine().Get("k"); ok {
		t.Fatal("expired copy readable")
	}
	// Backend 1: the same write delivered without its expiry (the
	// pre-fix hint replay could do this).
	kvs[1].Engine().Merge("k", store.Entry{Value: []byte("v"), Version: ver})
	if _, err := c.Rebalance(); err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	for b, kv := range kvs {
		if _, ok := kv.Engine().Get("k"); ok {
			t.Fatalf("backend %d resurrected an expired key", b)
		}
	}
	if v, ok, err := c.Get("k"); err != nil || ok {
		t.Fatalf("cluster Get = %q %v %v, want miss", v, ok, err)
	}
}
