package store

import (
	"fmt"
	"sort"
	"testing"
	"time"
)

// digestOf builds a reference Digest straight from a raw entry map,
// bypassing all the incremental dirty-tracking machinery — what the
// property test and the determinism tests compare engines against.
func digestOf(data map[string]Entry, buckets int) *Digest {
	perBucket := make(map[int][]string)
	for k := range data {
		b := BucketOf(k, buckets)
		perBucket[b] = append(perBucket[b], k)
	}
	leaves := make([]uint64, buckets)
	for b, keys := range perBucket {
		sort.Strings(keys)
		h := uint64(fnvOffset64)
		for _, k := range keys {
			h = hashEntry(h, k, data[k])
		}
		if h == 0 {
			h = 1
		}
		leaves[b] = h
	}
	return newDigest(leaves)
}

// TestMerkleDigestDeterministic pins the replication contract: two
// engines with identical raw content — different shard counts, writes
// in different orders — produce identical trees.
func TestMerkleDigestDeterministic(t *testing.T) {
	ft := newFakeTime()
	a := NewSharded(Options{Shards: 4, MerkleBuckets: 64, Now: ft.now})
	b := NewFlat(Options{MerkleBuckets: 64, Now: ft.now})
	entries := map[string]Entry{}
	for i := 0; i < 200; i++ {
		entries[fmt.Sprintf("k-%d", i)] = Entry{Value: []byte(fmt.Sprintf("v-%d", i)), Version: uint64(1000 + i)}
	}
	entries["dead"] = Entry{Version: 5000, Tombstone: true}
	entries["mortal"] = Entry{Value: []byte("m"), Version: 5001, ExpireAt: ft.now().Add(time.Hour).UnixNano()}
	for k, e := range entries {
		a.Merge(k, e)
	}
	// Reverse-ish order into b: map iteration already scrambles, but be
	// explicit that order cannot matter.
	keys := make([]string, 0, len(entries))
	for k := range entries {
		keys = append(keys, k)
	}
	sort.Sort(sort.Reverse(sort.StringSlice(keys)))
	for _, k := range keys {
		b.Merge(k, entries[k])
	}
	da, db := a.Digest(), b.Digest()
	if da.Buckets() != 64 || db.Buckets() != 64 {
		t.Fatalf("buckets = %d/%d, want 64", da.Buckets(), db.Buckets())
	}
	if da.Root() == 0 || da.Root() != db.Root() {
		t.Fatalf("roots differ: sharded %016x flat %016x", da.Root(), db.Root())
	}
	if want := digestOf(entries, 64); da.Root() != want.Root() {
		t.Fatalf("engine root %016x, reference %016x", da.Root(), want.Root())
	}
	// Every node agrees, not just the root.
	for i := 1; i < 128; i++ {
		ha, _ := da.Node(i)
		hb, _ := db.Node(i)
		if ha != hb {
			t.Fatalf("node %d differs: %016x vs %016x", i, ha, hb)
		}
	}
	if _, ok := da.Node(0); ok {
		t.Fatal("node 0 reported valid")
	}
	if _, ok := da.Node(128); ok {
		t.Fatal("node 2*buckets reported valid")
	}
}

// TestMerkleDigestTracksWrites pins the incremental maintenance: every
// kind of mutation changes the root, idle engines reuse the cached
// snapshot, and a divergent value at the same version is visible.
func TestMerkleDigestTracksWrites(t *testing.T) {
	ft := newFakeTime()
	for name, eng := range engines(ft) {
		t.Run(name, func(t *testing.T) {
			d0 := eng.Digest()
			if d0.Root() != 0 {
				t.Fatalf("empty root = %016x, want 0", d0.Root())
			}
			eng.Set("k", []byte("a"), 0)
			d1 := eng.Digest()
			if d1.Root() == 0 || d1.Root() == d0.Root() {
				t.Fatal("Set did not change the root")
			}
			if eng.Digest() != d1 {
				t.Fatal("idle engine rebuilt instead of reusing the snapshot")
			}
			eng.Delete("k")
			d2 := eng.Digest()
			if d2.Root() == d1.Root() {
				t.Fatal("Delete did not change the root")
			}
			eng.Purge("k")
			d3 := eng.Digest()
			if d3.Root() != 0 {
				t.Fatalf("root after purge-to-empty = %016x, want 0", d3.Root())
			}
		})
	}
}

// TestMerkleSameVersionDivergenceVisible is the digest's reason to
// exist: two copies at the same version with different values — the
// divergence a version-only listing cannot see — hash differently.
func TestMerkleSameVersionDivergenceVisible(t *testing.T) {
	a := NewSharded(Options{MerkleBuckets: 64})
	b := NewSharded(Options{MerkleBuckets: 64})
	a.Merge("k", Entry{Value: []byte("aaa"), Version: 100})
	b.Merge("k", Entry{Value: []byte("zzz"), Version: 100})
	if a.Digest().Root() == b.Digest().Root() {
		t.Fatal("same-version different-value copies hashed equal")
	}
	// The Wins tie-break converges them, and the digests agree again.
	a.Merge("k", Entry{Value: []byte("zzz"), Version: 100})
	if a.Digest().Root() != b.Digest().Root() {
		t.Fatal("converged copies hash differently")
	}
}

// TestMerkleLazyExpiryConvergesDigests pins the interaction between
// lazy expiry and the tree: two replicas expiring the same entry at
// different moments (one by read, one by sweep) end on the same digest.
func TestMerkleLazyExpiryConvergesDigests(t *testing.T) {
	ft := newFakeTime()
	a := NewSharded(Options{MerkleBuckets: 64, Now: ft.now})
	b := NewSharded(Options{MerkleBuckets: 64, Now: ft.now})
	e := Entry{Value: []byte("v"), Version: 100, ExpireAt: ft.now().Add(time.Minute).UnixNano()}
	a.Merge("k", e)
	b.Merge("k", e)
	ft.advance(time.Hour)
	a.Get("k") // lazy expiry on read
	b.Sweep(0) // swept expiry
	da, db := a.Digest(), b.Digest()
	if da.Root() != db.Root() {
		t.Fatalf("expiry paths diverged: %016x vs %016x", da.Root(), db.Root())
	}
	if da.Root() == 0 {
		t.Fatal("expiry tombstone missing from the digest")
	}
}

// TestRangeBucketPartitions pins RangeBucket: the buckets partition the
// raw entry space — every entry in exactly the bucket BucketOf names.
func TestRangeBucketPartitions(t *testing.T) {
	ft := newFakeTime()
	for name, eng := range engines(ft) {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 300; i++ {
				eng.Set(fmt.Sprintf("k-%d", i), []byte("x"), 0)
			}
			eng.Delete("k-7")
			buckets := eng.Digest().Buckets()
			seen := map[string]Entry{}
			for b := 0; b < buckets; b++ {
				eng.RangeBucket(b, func(k string, e Entry) bool {
					if BucketOf(k, buckets) != b {
						t.Fatalf("bucket %d listed %q (bucket %d)", b, k, BucketOf(k, buckets))
					}
					if _, dup := seen[k]; dup {
						t.Fatalf("key %q listed twice", k)
					}
					seen[k] = e
					return true
				})
			}
			if len(seen) != 300 {
				t.Fatalf("buckets listed %d entries, want 300", len(seen))
			}
			if !seen["k-7"].Tombstone {
				t.Fatal("bucket listing lost the tombstone")
			}
		})
	}
}

// TestExpiryTombstoneStopsResurrection is the regression for the
// ROADMAP hole this PR closes: a stale immortal copy that survived a
// TTL lapse on another replica must not win replication afterwards.
func TestExpiryTombstoneStopsResurrection(t *testing.T) {
	ft := newFakeTime()
	fresh := NewSharded(Options{Now: ft.now}) // wrote the TTL'd value, expired it
	stale := NewSharded(Options{Now: ft.now}) // holds an older immortal copy
	stale.Merge("k", Entry{Value: []byte("old"), Version: 100})
	ttl := Entry{Value: []byte("new"), Version: 200, ExpireAt: ft.now().Add(time.Minute).UnixNano()}
	fresh.Merge("k", ttl)
	ft.advance(time.Hour)
	if _, ok := fresh.Get("k"); ok {
		t.Fatal("entry readable past its TTL")
	}
	// Anti-entropy replays the stale copy at fresh: it must lose to the
	// expiry tombstone (version 200 beats 100).
	if _, applied := fresh.Merge("k", Entry{Value: []byte("old"), Version: 100}); applied {
		t.Fatal("stale immortal copy resurrected an expired key")
	}
	// And the tombstone replayed at stale converges it to deleted.
	tomb, ok := fresh.Load("k")
	if !ok || !tomb.Tombstone || tomb.Version != 200 || tomb.ExpireAt == 0 {
		t.Fatalf("expiry left %+v %v, want expiry tombstone@200", tomb, ok)
	}
	if _, applied := stale.Merge("k", tomb); !applied {
		t.Fatal("expiry tombstone lost against the stale copy")
	}
	if _, ok := stale.Get("k"); ok {
		t.Fatal("stale replica still serves the resurrected value")
	}
	// Same-version immortal split: mortal beats immortal, both orders.
	mortal := Entry{Value: []byte("v"), Version: 300, ExpireAt: ft.now().Add(time.Minute).UnixNano()}
	immortal := Entry{Value: []byte("v"), Version: 300}
	if !mortal.Wins(immortal) || immortal.Wins(mortal) {
		t.Fatal("mortal-beats-immortal tie-break broken")
	}
}
