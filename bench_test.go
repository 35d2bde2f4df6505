// Root benchmark harness: one testing.B per table and figure of the
// paper, regenerating each artifact end to end (data + analysis +
// rendering). EXPERIMENTS.md records the paper-vs-measured comparison;
// the substrate-level experiments (E7-E16 in DESIGN.md) live as benches
// in their internal packages and are all covered by
// `go test -bench=. -benchmem ./...`.
package pdcedu

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pdcedu/internal/csnet"
	"pdcedu/internal/dist"
	"pdcedu/internal/obs"
	"pdcedu/internal/store"
	"pdcedu/internal/trace"
)

// BenchmarkTableI regenerates Table I (E1).
func BenchmarkTableI(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out := RenderTableI()
		if !strings.Contains(out, "Flynn") {
			b.Fatal("Table I incomplete")
		}
	}
}

// BenchmarkFig2 regenerates the Fig. 2 weighted topic sums (E2).
func BenchmarkFig2(b *testing.B) {
	sv := BuildSurvey()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := RenderFig2(sv)
		if !strings.Contains(out, "Fig. 2") {
			b.Fatal("Fig. 2 incomplete")
		}
	}
}

// BenchmarkFig3 regenerates the Fig. 3 course shares (E3).
func BenchmarkFig3(b *testing.B) {
	sv := BuildSurvey()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := RenderFig3(sv)
		if !strings.Contains(out, "25.0%") {
			b.Fatal("Fig. 3 numbers drifted from the paper")
		}
	}
}

// BenchmarkTableII regenerates Table II (E4).
func BenchmarkTableII(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out := RenderTableII()
		if !strings.Contains(out, "Multi/Many-core") {
			b.Fatal("Table II incomplete")
		}
	}
}

// BenchmarkTableIII regenerates Table III (E5).
func BenchmarkTableIII(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out := RenderTableIII()
		if !strings.Contains(out, "Concurrency primitives") {
			b.Fatal("Table III incomplete")
		}
	}
}

// BenchmarkSurveyAudit runs the full 20-program accreditation audit (E6).
func BenchmarkSurveyAudit(b *testing.B) {
	sv := BuildSurvey()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range sv.Programs {
			r, err := CheckProgram(p)
			if err != nil || !r.Pass {
				b.Fatalf("audit failed: %v %v", r.Pass, err)
			}
		}
	}
}

// BenchmarkConsistentHashPick measures the cluster router's hot path:
// one ring lookup per request (E17).
func BenchmarkConsistentHashPick(b *testing.B) {
	ring := dist.NewConsistentHash(8, 128)
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("user:%d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := ring.Pick(keys[i&1023]); s < 0 || s >= 8 {
			b.Fatal("Pick out of range")
		}
	}
}

// benchCluster starts loopback KV backends and a replicated cluster
// for the transport benchmarks (E18, E20-E22).
func benchCluster(b *testing.B) *dist.Cluster {
	b.Helper()
	const backends = 3
	addrs := make([]string, backends)
	for i := range addrs {
		srv := csnet.NewServer(csnet.NewKVHandler(), 64)
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(srv.Shutdown)
		addrs[i] = addr
	}
	c, err := dist.NewCluster(dist.ClusterConfig{Addrs: addrs, Replication: 2, Timeout: 5 * time.Second})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	return c
}

// BenchmarkClusterSetGet measures a replicated Set plus a Get through
// the sharded cluster over real loopback TCP, one request at a time
// from one goroutine — the serialized baseline the pipelined transport
// is measured against (E18).
func BenchmarkClusterSetGet(b *testing.B) {
	c := benchCluster(b)
	val := []byte("benchmark-value")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := fmt.Sprintf("bench-%d", i&4095)
		if err := c.Set(key, val); err != nil {
			b.Fatal(err)
		}
		if _, ok, err := c.Get(key); err != nil || !ok {
			b.Fatalf("get %s: %v %v", key, ok, err)
		}
	}
}

// BenchmarkClusterPipelined measures the same Set+Get pair issued by
// many concurrent goroutines sharing one multiplexed connection per
// backend (E20): throughput comes from N requests in flight, not N
// connections in lock-step.
func BenchmarkClusterPipelined(b *testing.B) {
	c := benchCluster(b)
	val := []byte("benchmark-value")
	var ctr atomic.Uint64
	b.ReportAllocs()
	b.SetParallelism(32)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			key := fmt.Sprintf("bench-%d", ctr.Add(1)&4095)
			if err := c.Set(key, val); err != nil {
				b.Fatal(err)
			}
			if _, ok, err := c.Get(key); err != nil || !ok {
				b.Fatalf("get %s: %v %v", key, ok, err)
			}
		}
	})
}

// BenchmarkClusterSetOneNodeDown measures the degraded write path
// (E24): the same concurrent Set+Get load as E20, but with one of the
// three backends dead and evicted from the ring. Writes land on the
// surviving live replica sets, so latency must stay within ~2x the
// healthy pipelined path rather than stalling on the dead node.
func BenchmarkClusterSetOneNodeDown(b *testing.B) {
	const backends = 3
	srvs := make([]*csnet.Server, backends)
	addrs := make([]string, backends)
	for i := range addrs {
		srvs[i] = csnet.NewServer(csnet.NewKVHandler(), 64)
		addr, err := srvs[i].Start("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(srvs[i].Shutdown)
		addrs[i] = addr
	}
	c, err := dist.NewCluster(dist.ClusterConfig{Addrs: addrs, Replication: 2, Timeout: 5 * time.Second})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	srvs[2].Shutdown() // crash one backend...
	c.MarkDown(2)      // ...and let the detector's verdict evict it
	val := []byte("benchmark-value")
	var ctr atomic.Uint64
	b.ReportAllocs()
	b.SetParallelism(32)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			key := fmt.Sprintf("bench-%d", ctr.Add(1)&4095)
			if err := c.Set(key, val); err != nil {
				b.Fatal(err)
			}
			if _, ok, err := c.Get(key); err != nil || !ok {
				b.Fatalf("get %s: %v %v", key, ok, err)
			}
		}
	})
}

// benchBatchKeys builds the 100-key working set for E21/E22.
func benchBatchKeys() (keys []string, values [][]byte) {
	for i := 0; i < 100; i++ {
		keys = append(keys, fmt.Sprintf("batch-%d", i))
		values = append(values, []byte("benchmark-value"))
	}
	return keys, values
}

// BenchmarkClusterMSet100 writes 100 replicated keys as one batched
// MSet — a single pipelined burst per backend (E21).
func BenchmarkClusterMSet100(b *testing.B) {
	c := benchCluster(b)
	keys, values := benchBatchKeys()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.MSet(keys, values); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterSetLoop100 writes the same 100 keys as a loop of
// single Sets — the serialized baseline for E21.
func BenchmarkClusterSetLoop100(b *testing.B) {
	c := benchCluster(b)
	keys, values := benchBatchKeys()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, key := range keys {
			if err := c.Set(key, values[j]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkClusterMGet100 reads 100 keys as one batched MGet (E22).
func BenchmarkClusterMGet100(b *testing.B) {
	c := benchCluster(b)
	keys, values := benchBatchKeys()
	if err := c.MSet(keys, values); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := c.MGet(keys)
		if err != nil {
			b.Fatal(err)
		}
		if len(got) != len(keys) {
			b.Fatalf("MGet found %d keys, want %d", len(got), len(keys))
		}
	}
}

// BenchmarkClusterGetLoop100 reads the same 100 keys as a loop of
// single Gets — the serialized baseline for E22.
func BenchmarkClusterGetLoop100(b *testing.B) {
	c := benchCluster(b)
	keys, values := benchBatchKeys()
	if err := c.MSet(keys, values); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, key := range keys {
			if _, ok, err := c.Get(key); err != nil || !ok {
				b.Fatalf("get %s: %v %v", key, ok, err)
			}
		}
	}
}

// BenchmarkSimulateLoad measures the 10k-request load-balancing
// simulation used by the distkv lab's strategy comparison (E19).
func BenchmarkSimulateLoad(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep := dist.SimulateLoad(dist.NewPowerOfTwo(8, 42), 8, 10000, 64, 7)
		if rep.Max+rep.Min == 0 {
			b.Fatal("simulation assigned no requests")
		}
	}
}

// rwmutexKV is the pre-refactor KVHandler — one RWMutex around one
// map — preserved verbatim as the baseline the sharded storage engine
// is measured against (E25/E26). Handler-level, so both sides pay the
// same protocol dispatch.
type rwmutexKV struct {
	mu   sync.RWMutex
	data map[string][]byte
}

func newRWMutexKV() *rwmutexKV { return &rwmutexKV{data: map[string][]byte{}} }

func (kv *rwmutexKV) Serve(req csnet.Request) csnet.Response {
	switch req.Op {
	case csnet.OpGet:
		kv.mu.RLock()
		v, ok := kv.data[req.Key]
		kv.mu.RUnlock()
		if !ok {
			return csnet.Response{Status: csnet.StatusNotFound}
		}
		return csnet.Response{Status: csnet.StatusOK, Value: v}
	case csnet.OpSet:
		val := append([]byte(nil), req.Value...)
		kv.mu.Lock()
		kv.data[req.Key] = val
		kv.mu.Unlock()
		return csnet.Response{Status: csnet.StatusOK}
	case csnet.OpKeys:
		kv.mu.RLock()
		keys := make([]string, 0, len(kv.data))
		for k := range kv.data {
			keys = append(keys, k)
		}
		kv.mu.RUnlock()
		body, err := csnet.EncodeKeys(keys)
		if err != nil {
			return csnet.Response{Status: csnet.StatusError, Value: []byte(err.Error())}
		}
		return csnet.Response{Status: csnet.StatusOK, Value: body}
	default:
		return csnet.Response{Status: csnet.StatusError}
	}
}

// runExactGoroutines splits b.N ops over exactly g goroutines (unlike
// b.RunParallel, whose worker count is a multiple of GOMAXPROCS, so
// the G4/G16 labels here mean what they say on any machine). op
// receives a global op sequence number.
func runExactGoroutines(b *testing.B, g int, op func(n uint64)) {
	b.Helper()
	var next atomic.Uint64
	total := uint64(b.N)
	var wg sync.WaitGroup
	b.ResetTimer()
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := next.Add(1)
				if n > total {
					return
				}
				op(n)
			}
		}()
	}
	wg.Wait()
}

// benchKVMixed drives a 90/10 Get/Set mix over 4096 hot keys with
// exactly par concurrent goroutines against a KV handler (E25).
func benchKVMixed(b *testing.B, h csnet.Handler, par int) {
	b.Helper()
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = fmt.Sprintf("hot-%d", i)
		h.Serve(csnet.Request{Op: csnet.OpSet, Key: keys[i], Value: []byte("seed")})
	}
	val := []byte("benchmark-value")
	b.ReportAllocs()
	runExactGoroutines(b, par, func(n uint64) {
		k := keys[n&4095]
		if n%10 == 0 {
			if r := h.Serve(csnet.Request{Op: csnet.OpSet, Key: k, Value: val}); r.Status != csnet.StatusOK {
				b.Errorf("set: %s", r.Status)
			}
		} else {
			if r := h.Serve(csnet.Request{Op: csnet.OpGet, Key: k}); r.Status != csnet.StatusOK {
				b.Errorf("get: %s", r.Status)
			}
		}
	})
}

// E25: the parallel mixed workload on the old single-RWMutex handler
// versus the sharded versioned engine. The baseline's cost rises with
// goroutine count (reader/writer lock transitions serialize and start
// parking goroutines) while the sharded engine stays flat — on a
// multicore runner the crossover is immediate; even on a 1-CPU runner
// the baseline has fallen behind by G16.
func BenchmarkKVMixedOldRWMutexG4(b *testing.B)  { benchKVMixed(b, newRWMutexKV(), 4) }
func BenchmarkKVMixedShardedG4(b *testing.B)     { benchKVMixed(b, csnet.NewKVHandler(), 4) }
func BenchmarkKVMixedOldRWMutexG16(b *testing.B) { benchKVMixed(b, newRWMutexKV(), 16) }
func BenchmarkKVMixedShardedG16(b *testing.B)    { benchKVMixed(b, csnet.NewKVHandler(), 16) }

// benchKVWriteUnderKeys measures write throughput while a concurrent
// lister hammers OpKeys over a 100k-key store (E26) — the workload the
// OpKeys satellite fix targets. The old handler materializes the whole
// listing under its one RWMutex, so every writer stalls behind every
// listing; the engine's per-shard snapshot holds one shard at a time.
func benchKVWriteUnderKeys(b *testing.B, h csnet.Handler) {
	b.Helper()
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = fmt.Sprintf("hot-%d", i)
	}
	for i := 0; i < 100_000; i++ {
		h.Serve(csnet.Request{Op: csnet.OpSet, Key: fmt.Sprintf("cold-%d", i), Value: []byte("x")})
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if r := h.Serve(csnet.Request{Op: csnet.OpKeys}); r.Status != csnet.StatusOK {
					b.Errorf("keys: %s", r.Status)
					return
				}
			}
		}
	}()
	val := []byte("benchmark-value")
	b.ReportAllocs()
	runExactGoroutines(b, 4, func(n uint64) {
		if r := h.Serve(csnet.Request{Op: csnet.OpSet, Key: keys[n&4095], Value: val}); r.Status != csnet.StatusOK {
			b.Errorf("set: %s", r.Status)
		}
	})
	b.StopTimer()
	close(stop)
	wg.Wait()
}

// E26: writes under a concurrent KEYS listing, 4 goroutines.
func BenchmarkKVWriteUnderKeysOldRWMutex(b *testing.B) { benchKVWriteUnderKeys(b, newRWMutexKV()) }
func BenchmarkKVWriteUnderKeysSharded(b *testing.B)    { benchKVWriteUnderKeys(b, csnet.NewKVHandler()) }

// benchEngineMixed is the engine-level (no protocol) parallel mixed
// workload for E27: Flat's single mutex versus Sharded's per-shard
// locks, same table semantics under both.
func benchEngineMixed(b *testing.B, eng store.Engine, par int) {
	b.Helper()
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = fmt.Sprintf("hot-%d", i)
		eng.Set(keys[i], []byte("seed"), 0)
	}
	val := []byte("benchmark-value")
	b.ReportAllocs()
	runExactGoroutines(b, par, func(n uint64) {
		k := keys[n&4095]
		if n%10 == 0 {
			eng.Set(k, val, 0)
		} else if _, ok := eng.Get(k); !ok {
			b.Errorf("get %s missed", k)
		}
	})
}

// E27: the two engines head to head at 16 goroutines.
func BenchmarkStoreEngineFlatG16(b *testing.B) {
	benchEngineMixed(b, store.NewFlat(store.Options{}), 16)
}
func BenchmarkStoreEngineShardedG16(b *testing.B) {
	benchEngineMixed(b, store.NewSharded(store.Options{}), 16)
}

// benchAntiEntropyCluster boots a fully replicated cluster (rf = n, so
// converged replicas are byte-identical) preloaded with nKeys entries
// and one settling anti-entropy pass, for E28.
func benchAntiEntropyCluster(b *testing.B, nKeys int) (*dist.Cluster, []*csnet.KVHandler, []string) {
	b.Helper()
	const backends = 3
	kvs := make([]*csnet.KVHandler, backends)
	addrs := make([]string, backends)
	for i := range addrs {
		kvs[i] = csnet.NewKVHandler()
		srv := csnet.NewServer(kvs[i], 64)
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(srv.Shutdown)
		addrs[i] = addr
	}
	c, err := dist.NewCluster(dist.ClusterConfig{
		Addrs: addrs, Replication: backends, WriteQuorum: backends, Timeout: 5 * time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	keys := make([]string, nKeys)
	vals := make([][]byte, nKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("ae-%d", i)
		vals[i] = []byte(fmt.Sprintf("value-%d", i))
	}
	for at := 0; at < nKeys; at += 1000 {
		end := at + 1000
		if end > nKeys {
			end = nKeys
		}
		if err := c.MSet(keys[at:end], vals[at:end]); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := c.Rebalance(); err != nil {
		b.Fatal(err)
	}
	return c, kvs, keys
}

// benchAntiEntropySteady measures one steady-state converge pass over
// an already-converged nKeys cluster (E28): one root exchange per
// backend whatever the keyspace size.
func benchAntiEntropySteady(b *testing.B, nKeys int) {
	c, _, _ := benchAntiEntropyCluster(b, nKeys)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copied, err := c.Rebalance()
		if err != nil {
			b.Fatal(err)
		}
		if copied != 0 {
			b.Fatalf("steady-state pass streamed %d entries", copied)
		}
	}
}

// benchAntiEntropyDiff measures repairing a fixed-size divergence
// (holes punched into one replica) inside an nKeys cluster (E28): the
// pass's cost tracks the diff, not the keyspace.
func benchAntiEntropyDiff(b *testing.B, nKeys, diff int) {
	c, kvs, keys := benchAntiEntropyCluster(b, nKeys)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for d := 0; d < diff; d++ {
			kvs[1].Engine().Purge(keys[(d*37)%len(keys)])
		}
		b.StartTimer()
		copied, err := c.Rebalance()
		if err != nil {
			b.Fatal(err)
		}
		if copied < diff {
			b.Fatalf("repair pass streamed %d, want >= %d", copied, diff)
		}
	}
}

// E28: steady-state converge cost vs keyspace size.
func BenchmarkAntiEntropyMerkleSteady1k(b *testing.B)  { benchAntiEntropySteady(b, 1_000) }
func BenchmarkAntiEntropyMerkleSteady10k(b *testing.B) { benchAntiEntropySteady(b, 10_000) }

// E28: repair cost for a 64-key diff at two keyspace sizes — the pass
// should cost roughly the same at both.
func BenchmarkAntiEntropyMerkleDiff64Of1k(b *testing.B)  { benchAntiEntropyDiff(b, 1_000, 64) }
func BenchmarkAntiEntropyMerkleDiff64Of10k(b *testing.B) { benchAntiEntropyDiff(b, 10_000, 64) }

// benchServerOp measures one server round trip (a legacy SET through a
// real loopback server and muxed client) with metric recording either
// enabled or disabled — the E29 pair. The whole-stack contract is that
// the two land within noise of each other and neither allocates more
// than the baseline op: instrumentation must be invisible on the
// hottest path in the system.
func benchServerOp(b *testing.B, instrumented bool) {
	b.Helper()
	prev := obs.Enabled()
	obs.SetEnabled(instrumented)
	b.Cleanup(func() { obs.SetEnabled(prev) })
	srv := csnet.NewServer(csnet.NewKVHandler(), 64)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Shutdown)
	cl, err := csnet.Dial(addr, 5*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { cl.Close() })
	val := []byte("benchmark-value")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cl.Set(fmt.Sprintf("bench-%d", i&4095), val); err != nil {
			b.Fatal(err)
		}
	}
}

// E29: the instrumented server op vs the disabled-metrics baseline.
func BenchmarkServerOpInstrumented(b *testing.B) { benchServerOp(b, true) }
func BenchmarkServerOpBaseline(b *testing.B)     { benchServerOp(b, false) }

// E29 micro-costs: a counter increment (striped atomic), a disabled
// increment (one load and a branch), and a histogram observation —
// each must report 0 allocs/op.
func BenchmarkObsCounterInc(b *testing.B) {
	c := obs.NewCounter()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkObsCounterDisabled(b *testing.B) {
	prev := obs.Enabled()
	obs.SetEnabled(false)
	b.Cleanup(func() { obs.SetEnabled(prev) })
	c := obs.NewCounter()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkObsHistogramObserve(b *testing.B) {
	h := obs.NewHistogram()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		v := int64(1)
		for pb.Next() {
			h.Observe(v)
			v = (v * 2862933555777941757) & 0xFFFFF // cheap LCG spreads buckets
		}
	})
}

// benchTracedServerOp measures one versioned server round trip (a SetV
// through a real loopback server and muxed client) with a trace
// recorder either wired into the handler and enabled, or absent — the
// E30 pair. The requests carry no trace context (the unsampled common
// case), so the enabled side must land within noise of the baseline
// at identical allocs/op: tracing is paid only by sampled requests.
func benchTracedServerOp(b *testing.B, traced bool) {
	b.Helper()
	h := csnet.NewKVHandler()
	if traced {
		rec := trace.New(trace.Config{Node: "bench"})
		rec.SetEnabled(true)
		rec.SetSampleEvery(1 << 30) // enabled, but this bench's ops stay unsampled
		h = h.WithTracer(rec)
	}
	srv := csnet.NewServer(h, 64)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Shutdown)
	cl, err := csnet.Dial(addr, 5*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { cl.Close() })
	val := []byte("benchmark-value")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cl.SetV(fmt.Sprintf("bench-%d", i&4095), val, uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// E30: the tracing-enabled versioned server op vs the untraced
// baseline.
func BenchmarkTracedServerOpEnabled(b *testing.B)  { benchTracedServerOp(b, true) }
func BenchmarkTracedServerOpBaseline(b *testing.B) { benchTracedServerOp(b, false) }

// E30 micro-costs: recording a sampled span into the ring, and the
// start/finish path of a span that was never sampled — the latter must
// report 0 allocs/op, it is the cost every untraced request pays.
func BenchmarkTraceRingRecord(b *testing.B) {
	rec := trace.New(trace.Config{Node: "bench"})
	rec.SetEnabled(true)
	rec.SetSampleEvery(1)
	ctx := rec.NewTrace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := rec.StartSpan(ctx, trace.KindServer, "SETV")
		sp.Finish()
	}
}

func BenchmarkTraceUnsampledStartFinish(b *testing.B) {
	rec := trace.New(trace.Config{Node: "bench"})
	rec.SetEnabled(true)
	rec.SetSampleEvery(1 << 30)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			ctx := rec.NewTrace() // unsampled: invalid context
			sp := rec.StartSpan(ctx, trace.KindServer, "SETV")
			sp.Finish()
		}
	})
}

// benchStoreWALSet is the E32 hot path: 16 goroutines hammering Set on
// 4096 keys, the same pipelined shape as E27 but write-only so the WAL
// cost is undiluted by reads. The in-memory run is the baseline;
// buffered FsyncInterval logging must keep a durable write
// sub-microsecond (a small multiple of the baseline), and under
// FsyncAlways concurrent writers on a shard share one leader fsync,
// so the per-write fsync cost amortizes across the pipeline instead
// of serializing it.
func benchStoreWALSet(b *testing.B, open func(b *testing.B) *store.Sharded) {
	b.Helper()
	eng := open(b)
	defer eng.Close()
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = fmt.Sprintf("hot-%d", i)
		eng.Set(keys[i], []byte("seed"), 0)
	}
	val := []byte("benchmark-value")
	b.ReportAllocs()
	runExactGoroutines(b, 16, func(n uint64) {
		eng.Set(keys[n&4095], val, 0)
	})
	b.StopTimer()
	if err := eng.Err(); err != nil {
		b.Fatalf("engine poisoned: %v", err)
	}
}

func openDurable(fsync store.FsyncPolicy) func(b *testing.B) *store.Sharded {
	return func(b *testing.B) *store.Sharded {
		b.Helper()
		eng, err := store.OpenSharded(store.Options{}, store.WALOptions{Dir: b.TempDir(), Fsync: fsync})
		if err != nil {
			b.Fatal(err)
		}
		return eng
	}
}

// E32: durable write throughput against the in-memory baseline.
func BenchmarkStoreWALOffG16(b *testing.B) {
	benchStoreWALSet(b, func(b *testing.B) *store.Sharded { return store.NewSharded(store.Options{}) })
}
func BenchmarkStoreWALIntervalG16(b *testing.B) {
	benchStoreWALSet(b, openDurable(store.FsyncInterval))
}
func BenchmarkStoreWALAlwaysG16(b *testing.B) { benchStoreWALSet(b, openDurable(store.FsyncAlways)) }

// benchWALRecovery measures a cold OpenSharded over a directory holding
// nkeys live entries (E32): the recovery-time-vs-keyspace curve the
// README's durability section quotes. The directory is built once; each
// iteration replays it from scratch.
func benchWALRecovery(b *testing.B, nkeys int) {
	b.Helper()
	dir := b.TempDir()
	opts := store.Options{Shards: 16}
	wopts := store.WALOptions{Dir: dir, Fsync: store.FsyncNever}
	eng, err := store.OpenSharded(opts, wopts)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < nkeys; i++ {
		eng.Set(fmt.Sprintf("key-%06d", i), []byte(fmt.Sprintf("value-%06d", i)), 0)
	}
	if err := eng.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := store.OpenSharded(opts, wopts)
		if err != nil {
			b.Fatal(err)
		}
		if s.Len() != nkeys {
			b.Fatalf("recovered %d keys, want %d", s.Len(), nkeys)
		}
		b.StopTimer()
		s.Close()
		b.StartTimer()
	}
}

// E32: WAL replay cost as the keyspace grows.
func BenchmarkStoreWALRecovery10k(b *testing.B) { benchWALRecovery(b, 10_000) }
func BenchmarkStoreWALRecovery50k(b *testing.B) { benchWALRecovery(b, 50_000) }
