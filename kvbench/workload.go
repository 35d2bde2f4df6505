package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"pdcedu/internal/store"
)

// workload is one traffic mix. NOTES.md gives the reason for each.
type workload struct {
	name      string
	backends  int
	durable   bool    // store.OpenSharded engines with a WAL; otherwise in-memory
	shards    int     // engine shards; 0 means store.DefaultShards
	readCache int     // coordinator read-cache entries; 0 disables it
	zipfS     float64 // zipfian skew over the keys; 0 means uniform
	readPct   int
	valSize   int
	window    int // > 0: one raw mux connection with this many requests in flight, no coordinator
}

// coordinated reports whether the workload drives a dist.Cluster.
func (w workload) coordinated() bool { return w.window == 0 }

var workloads = []workload{
	{name: "hot-read-cached", backends: 3, readCache: 4096, zipfS: 1.2, readPct: 95, valSize: 128},
	{name: "durable-mixed", backends: 3, durable: true, shards: 4, readPct: 50, valSize: 128},
	{name: "pipelined-raw", backends: 1, readPct: 90, valSize: 16, window: 256},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	numKeys     = 100_000
	replication = 3

	// Durable engines use the distnode defaults (fsync=interval every
	// 100ms, 128 shards) except for SnapshotBytes, which is lowered so
	// every shard snapshots several times within one measured window.
	fsyncPolicy   = store.FsyncInterval
	fsyncInterval = 100 * time.Millisecond
	snapshotBytes = 1 << 20

	// minSnapshotCycles is how many times, on average, every shard of
	// every durable engine must have snapshotted inside the window; the
	// window is stretched until it has (see loadGen.snapshotsPending).
	minSnapshotCycles = 2.0
)

// keyName formats key i; keyIndex parses it back. Keys are fixed-width
// so the timing wrappers can recover the index without a map lookup.
func keyName(i int) string { return fmt.Sprintf("key:%08d", i) }

func keyIndex(k string) (int, bool) {
	if len(k) != 12 || k[:4] != "key:" {
		return 0, false
	}
	n := 0
	for i := 4; i < len(k); i++ {
		c := k[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, n < numKeys
}

func makeKeys() []string {
	keys := make([]string, numKeys)
	for i := range keys {
		keys[i] = keyName(i)
	}
	return keys
}

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// keyTag is the per-key fingerprint every value of that key carries.
func keyTag(i int) uint64 { return mix64(uint64(i) + 0x9e3779b97f4a7c15) }

// putValue fills v (at least 16 bytes) with a self-describing value for
// key i: the key's tag mixed with the writer's sequence number, the
// sequence number, and a filler derived from both, so a read can tell a
// well-formed value for its key from a torn, truncated or misrouted one.
func putValue(v []byte, i int, seq uint64) {
	tag := keyTag(i)
	binary.LittleEndian.PutUint64(v, tag^mix64(seq))
	binary.LittleEndian.PutUint64(v[8:], seq)
	f := byte(tag ^ seq)
	for j := 16; j < len(v); j++ {
		v[j] = f + byte(j)
	}
}

func validValue(v []byte, i, size int) bool {
	if len(v) != size {
		return false
	}
	tag, seq := keyTag(i), binary.LittleEndian.Uint64(v[8:])
	if binary.LittleEndian.Uint64(v)^mix64(seq) != tag {
		return false
	}
	f := byte(tag ^ seq)
	for j := 16; j < len(v); j++ {
		if v[j] != f+byte(j) {
			return false
		}
	}
	return true
}

// seqOf numbers writes: writer 0 is the preload, callers are 1..n.
func seqOf(writer int, n uint64) uint64 { return uint64(writer)<<40 | n }

// picker draws key indices and the op mix for one caller. Zipfian ranks
// go through a seed-derived permutation, so which keys are hot (and so
// which shards and buckets are hot) is an input of the seed.
type picker struct {
	rng     *rand.Rand
	zipf    *rand.Zipf
	perm    []int
	readPct int
}

func newPicker(w workload, seed int64, caller int, perm []int) *picker {
	rng := rand.New(rand.NewSource(seed*7919 + int64(caller)))
	p := &picker{rng: rng, perm: perm, readPct: w.readPct}
	if w.zipfS > 0 {
		p.zipf = rand.NewZipf(rng, w.zipfS, 1, numKeys-1)
	}
	return p
}

func (p *picker) next() (key int, read bool) {
	if p.zipf != nil {
		key = p.perm[p.zipf.Uint64()]
	} else {
		key = p.rng.Intn(numKeys)
	}
	return key, p.rng.Intn(100) < p.readPct
}
