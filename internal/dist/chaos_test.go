package dist

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"pdcedu/internal/store"
)

// TestAntiEntropyChaos is the divergence chaos property test: a
// randomized fault injector seeds every divergence class the
// replication stack knows how to produce — holes, stale versions,
// same-version value splits, orphan tombstones, expired-immortal
// copies, and copies stranded on non-owners (an only copy, one newer
// than the owners', an equal leftover, a same-version split) —
// directly into the engines of
// a 5-node cluster, then one anti-entropy pass must converge every
// owner byte-identically to the Entry.Wins winner computed by a
// reference model and leave every non-owner empty, and the following
// pass must find a fully converged cluster (digest-only, nothing
// streamed). The seed is logged so a failure replays; CI runs it twice
// under the race detector for two fresh seeds.
func TestAntiEntropyChaos(t *testing.T) {
	seed := time.Now().UnixNano()
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))

	const (
		nNodes = 5
		rf     = 3
		nKeys  = 300
	)
	kvs, c := startKVCluster(t, nNodes, ClusterConfig{Replication: rf, WriteQuorum: rf}, nil)

	// Baseline: every key identical on its rf owners.
	keys := make([]string, nKeys)
	vals := make([][]byte, nKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("chaos-%d", i)
		vals[i] = []byte(fmt.Sprintf("v-%d-%d", i, rng.Intn(1_000_000)))
	}
	if err := c.MSet(keys, vals); err != nil {
		t.Fatal(err)
	}

	// Fault injection: mutate owner engines behind the cluster's back.
	eng := func(b int) store.Engine { return kvs[b].Engine() }
	for i, k := range keys {
		owners := c.replicaSet(k)
		victim := owners[rng.Intn(len(owners))]
		var nonOwners []int
		for b := 0; b < nNodes; b++ {
			if !slices.Contains(owners, b) {
				nonOwners = append(nonOwners, b)
			}
		}
		stray := nonOwners[rng.Intn(len(nonOwners))]
		base, ok := eng(owners[0]).Load(k)
		if !ok {
			t.Fatalf("baseline copy of %q missing on owner %d", k, owners[0])
		}
		switch rng.Intn(10) {
		case 0: // hole: one owner lost the key outright
			eng(victim).Purge(k)
		case 1: // stale version: one owner stuck on an older write
			eng(victim).Purge(k)
			eng(victim).Merge(k, store.Entry{Value: []byte("stale"), Version: base.Version - uint64(1+rng.Intn(500))})
		case 2: // same-version value split (coordinator collision)
			eng(victim).Purge(k)
			eng(victim).Merge(k, store.Entry{Value: []byte(fmt.Sprintf("split-%d", rng.Intn(1_000_000))), Version: base.Version})
		case 3: // orphan tombstone: a delete that reached one owner only
			eng(victim).Merge(k, store.Entry{Version: base.Version + uint64(1+rng.Intn(500)), Tombstone: true})
		case 4: // expired-immortal: one owner expired its mortal copy,
			// another holds the same version without the expiry
			exp := time.Now().Add(-time.Minute).UnixNano()
			ver := base.Version + 1
			for _, o := range owners {
				eng(o).Purge(k)
				eng(o).Merge(k, store.Entry{Value: base.Value, Version: ver})
			}
			eng(victim).Purge(k)
			eng(victim).Merge(k, store.Entry{Value: base.Value, Version: ver, ExpireAt: exp})
			eng(victim).Get(k) // lazy-expire it into a tombstone
		case 5: // only copy: every owner was down at write time, so the
			// ring's successors took the write and are non-owners again
			for _, o := range owners {
				eng(o).Purge(k)
			}
			for _, b := range nonOwners {
				eng(b).Merge(k, base)
			}
		case 6: // a stranded copy newer than the owners'
			eng(stray).Merge(k, store.Entry{Value: []byte(fmt.Sprintf("stranded-%d", rng.Intn(1_000_000))), Version: base.Version + uint64(1+rng.Intn(500))})
		case 7: // an equal leftover from before a ring change
			eng(stray).Merge(k, base)
		case 8: // a stranded copy at the owners' version with other bytes
			eng(stray).Merge(k, store.Entry{Value: []byte(fmt.Sprintf("stranded-split-%d", rng.Intn(1_000_000))), Version: base.Version})
		default: // untouched: converged keys must stay untouched
			_ = i
		}
	}

	// Reference model: per key, the Entry.Wins winner over whatever any
	// backend holds right now.
	type want struct {
		e   store.Entry
		any bool
	}
	expected := make(map[string]want, nKeys)
	for _, k := range keys {
		var w want
		for o := 0; o < nNodes; o++ {
			e, ok := eng(o).Load(k)
			if !ok {
				continue
			}
			if !w.any || e.Wins(w.e) {
				w.e, w.any = e, true
			}
		}
		expected[k] = w
	}

	if _, err := c.Rebalance(); err != nil {
		t.Fatalf("anti-entropy pass: %v", err)
	}

	// Byte-identical convergence on every owner.
	for _, k := range keys {
		w := expected[k]
		if !w.any {
			t.Fatalf("model lost %q entirely", k)
		}
		for _, o := range c.replicaSet(k) {
			got, ok := eng(o).Load(k)
			if !ok {
				t.Fatalf("owner %d missing %q after anti-entropy (want %+v)", o, k, w.e)
			}
			if got.Version != w.e.Version || got.Tombstone != w.e.Tombstone ||
				!bytes.Equal(got.Value, w.e.Value) || got.ExpireAt != w.e.ExpireAt {
				t.Fatalf("owner %d of %q = %+v, want %+v", o, k, got, w.e)
			}
		}
	}

	// No non-owner holds anything: every stranded copy was purged.
	for b := 0; b < nNodes; b++ {
		d := eng(b).Digest()
		for bkt := 0; bkt < c.buckets; bkt++ {
			if d.Leaf(bkt) != 0 && !slices.Contains(c.ownersOf(bkt), b) {
				t.Fatalf("non-owner %d still holds copies in bucket %d after anti-entropy", b, bkt)
			}
		}
	}

	// The next pass sees a converged cluster: digests only, no stream.
	copied, err := c.Rebalance()
	if err != nil || copied != 0 {
		t.Fatalf("post-converge pass = %d %v, want 0 nil", copied, err)
	}
	if st := c.AntiEntropyStats(); st.ListingFrames != 0 || st.KeysListed != 0 {
		t.Fatalf("post-converge pass still listing: %+v", st)
	}
}
