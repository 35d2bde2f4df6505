// Command kvbench is the repository's benchmark of the key-value stack:
// it builds an in-process cluster from the public constructors, drives
// one closed-loop workload, checks the outputs, and prints every metric
// by name with its unit. NOTES.md explains the workloads and metrics.
//
//	kvbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is the result object; the line
// before it stamps the environment and the sample counts. With
// --trace 0 the result holds the end-to-end metrics of three untraced
// systems measured a third of --seconds each; with --trace 1 it holds
// the per-layer metrics, from an untraced window (counters) followed by
// a traced one (spans), each half of --seconds. A failed correctness
// check exits 1 without printing a result.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"pdcedu/internal/store"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type config struct {
	w       workload
	seed    int64
	seconds float64
	trace   bool
	workdir string
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("kvbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: hot-read-cached, durable-mixed or pipelined-raw")
	seed := fl.Int64("seed", 1, "input seed")
	seconds := fl.Float64("seconds", 30, "measured seconds: three windows of a third each, or two halves with --trace 1")
	traceFlag := fl.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	workdir := fl.String("workdir", envOr("KVBENCH_WORKDIR", ".bench_build"), "directory for WAL data and temporary files")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "kvbench: need --workload (one of %s), --seconds > 0 and --trace 0 or 1\n", workloadNames())
		return 2
	}
	cfg := config{w: w, seed: *seed, seconds: *seconds, trace: *traceFlag == 1, workdir: *workdir}
	res, err := measure(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "kvbench: %s: %v\n", w.name, err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"kvbench": res.stamp}); err != nil {
		return 1
	}
	if err := enc.Encode(res.out); err != nil {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type result struct {
	stamp map[string]any
	out   output
}

const setupRuns = 3

func measure(cfg config) (*result, error) {
	nproc := runtime.NumCPU()
	keys := makeKeys()
	perm := rand.New(rand.NewSource(cfg.seed)).Perm(numKeys)
	d := time.Duration(cfg.seconds * float64(time.Second))
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workdir, "kvbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	res := &result{stamp: stamp(cfg, nproc)}
	if !cfg.trace {
		return res, measureEndToEnd(cfg, res, dir, keys, perm, d, nproc)
	}
	return res, measureLayers(cfg, res, dir, keys, perm, d/2, nproc)
}

// session is one set-up system measured for one window and checked.
func session(cfg config, dir string, keys []string, perm []int, d time.Duration, nproc int, t *tracer) (window, error) {
	sys, err := setup(cfg.w, dir, keys, t)
	if err != nil {
		return window{}, fmt.Errorf("setup: %w", err)
	}
	win, err := measureChecked(cfg, sys, keys, perm, d, nproc, t)
	return win, errors.Join(err, sys.close())
}

func measureChecked(cfg config, sys *system, keys []string, perm []int, d time.Duration, nproc int, t *tracer) (window, error) {
	win, err := newLoadGen(sys, keys, perm, cfg.seed, t).measure(d)
	if err != nil {
		return win, err
	}
	if err := sys.verify(); err != nil {
		return win, err
	}
	return win, checkLoad(cfg.w, win, nproc)
}

// checkLoad asserts the load shape: at most nproc callers, at most
// nproc client connections into each backend, no redial, and on the
// durable workload several snapshot cycles inside the window.
func checkLoad(w workload, win window, nproc int) error {
	dl := delta{win.before, win.after}
	if win.callers > nproc {
		return fmt.Errorf("%d callers exceed nproc=%d", win.callers, nproc)
	}
	if win.conns > nproc*w.backends {
		return fmt.Errorf("%d client connections exceed nproc=%d per backend", win.conns, nproc)
	}
	if n := dl.counter("dist.pool.redials"); n > 0 {
		return fmt.Errorf("the coordinator redialed %v times", n)
	}
	if w.durable && win.snapshotCycles < minSnapshotCycles {
		return fmt.Errorf("only %.2f snapshot cycles per shard in the window, want >= %.0f", win.snapshotCycles, minSnapshotCycles)
	}
	return nil
}

// measureEndToEnd sets up a fresh system setupRuns times, times each
// set-up, and measures each system for an equal share of d. A system
// settles into a pace of its own (how its goroutines, connections and
// batches fall into step), so the metrics pool the slices of all the
// systems instead of trusting one. The quiet slices are chosen from the
// pool, so a busy stretch of the host that spans one system's window
// does not weigh in when the others' were quiet. The peak RSS is the
// process's once the first system has run: it grows with each later
// system, so a peak over all of them would also measure what the
// earlier ones left behind.
func measureEndToEnd(cfg config, res *result, dir string, keys []string, perm []int, d time.Duration, nproc int) error {
	var setups []float64
	var wins []window
	var ok, attempted, alloc uint64
	for i := 0; i < setupRuns; i++ {
		start := time.Now()
		sys, err := setup(cfg.w, filepath.Join(dir, fmt.Sprint(i)), keys, nil)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		win, err := measureChecked(cfg, sys, keys, perm, d/setupRuns, nproc, nil)
		if err = errors.Join(err, sys.close()); err != nil {
			return err
		}
		wins = append(wins, win)
		ok += win.ops.ok()
		attempted += win.ops.ok() + win.ops.failed
		alloc += win.after.alloc - win.before.alloc
	}
	var pool []*sliceStat
	for i := range wins {
		for j := range wins[i].slices {
			pool = append(pool, &wins[i].slices[j])
		}
	}
	sl := quietSlices(pool)
	sort.Float64s(setups)
	res.out = output{
		Correct:   true,
		Attempted: attempted,
		Failed:    attempted - ok,
		Metrics: map[string]metric{
			"throughput_ops_s":   {midmeanOver(sl, func(s sliceStat) float64 { return s.ops / s.seconds }), "1/s"},
			"get_p50_us":         {midmeanOver(sl, func(s sliceStat) float64 { return s.getP50 }), "us"},
			"get_p99_us":         {midmeanOver(sl, func(s sliceStat) float64 { return s.getP99 }), "us"},
			"set_p50_us":         {midmeanOver(sl, func(s sliceStat) float64 { return s.setP50 }), "us"},
			"set_p99_us":         {midmeanOver(sl, func(s sliceStat) float64 { return s.setP99 }), "us"},
			"cpu_us_per_op":      {midmeanOver(sl, func(s sliceStat) float64 { return s.cpuUs / s.ops }), "us"},
			"alloc_bytes_per_op": {float64(alloc) / float64(ok), "B"},
			"max_rss_mb":         {float64(wins[0].after.maxRSSKB) / 1024, "MB"},
			"success_ratio":      {float64(ok) / float64(attempted), "ratio"},
			"setup_s":            {setups[len(setups)/2], "s"},
		},
	}
	var stamps []map[string]any
	for _, w := range wins {
		stamps = append(stamps, windowStamp(w))
	}
	res.stamp["windows"] = stamps
	res.stamp["setup_s_runs"] = setups
	return nil
}

func measureLayers(cfg config, res *result, dir string, keys []string, perm []int, d time.Duration, nproc int) error {
	plain, err := session(cfg, filepath.Join(dir, "plain"), keys, perm, d, nproc, nil)
	if err != nil {
		return err
	}
	t := newTracer()
	traced, err := session(cfg, filepath.Join(dir, "traced"), keys, perm, d, nproc, t)
	if err != nil {
		return err
	}
	if n := t.dropped(); n > 0 {
		return fmt.Errorf("the span logs dropped %d spans", n)
	}
	r, err := t.analyze(cfg.w.coordinated())
	if err != nil {
		return err
	}
	res.out = output{
		Correct:   true,
		Attempted: plain.ops.ok() + plain.ops.failed + traced.ops.ok() + traced.ops.failed,
		Failed:    plain.ops.failed + traced.ops.failed,
		Metrics:   layerMetrics(plain, traced, r),
	}
	res.stamp["window"] = windowStamp(plain)
	res.stamp["traced_window"] = windowStamp(traced)
	return nil
}

func cpuPerOp(w window) float64 { return us(int64(w.after.cpu-w.before.cpu)) / float64(w.ops.ok()) }

// layerMetrics derives the per-layer metrics: counter-based ones from
// the untraced window, span-based ones from the traced window.
func layerMetrics(plain, traced window, r traceReport) map[string]metric {
	dl := delta{plain.before, plain.after}
	ops := float64(plain.ops.ok())
	sec := plain.elapsed.Seconds()
	userBytes := float64(plain.ops.userBytes)
	hits, misses := dl.counter("dist.cache.hits"), dl.counter("dist.cache.misses")
	frameNs := dl.histMean("csnet.server.op_latency.")
	fsyncNs := dl.histMean("store.wal.fsync_ns")
	snapNs := dl.histMean("store.wal.snapshot_ns")
	sort.Float64s(r.queueWaitUs)
	sort.Float64s(r.engineUs)
	coordOps := float64(max(r.coordOps, 1))
	return map[string]metric{
		"dist.get_us.mean":                {r.getUs.value(), "us"},
		"dist.set_us.mean":                {r.setUs.value(), "us"},
		"dist.uncovered_us_per_op":        {r.uncoveredUs / coordOps, "us"},
		"dist.cache.hit_ratio":            {ratio(hits, hits+misses), "ratio"},
		"dist.cache.invalidations_per_op": {dl.counter("dist.cache.invalidations") / ops, "count/op"},
		"dist.rpcs_per_op":                {dl.counterPrefix("csnet.server.ops.") / ops, "count/op"},
		"dist.read_repairs":               {dl.counter("dist.read_repairs"), "count"},
		"dist.partial_writes":             {dl.counter("dist.partial_writes"), "count"},
		"dist.quorum_shortfall":           {dl.counter("dist.quorum_shortfall"), "count"},
		"wire.write_syscalls_per_op":      {dl.io("syscw") / ops, "count/op"},
		"wire.read_syscalls_per_op":       {dl.io("syscr") / ops, "count/op"},
		"wire.bytes_per_op":               {(dl.counter("csnet.server.bytes_in") + dl.counter("csnet.server.bytes_out")) / ops, "B/op"},
		"csnet.mux.pending_hw":            {dl.gauge("csnet.mux.pending.hw"), "count"},
		"csnet.mux.timeouts":              {dl.counter("csnet.mux.timeouts"), "count"},
		"csnet.server.queue_wait_us.mean": {meanOf(r.queueWaitUs), "us"},
		"csnet.server.queue_wait_us.p99":  {percentile(r.queueWaitUs, 0.99), "us"},
		"csnet.server.frame_us.mean":      {frameNs / 1e3, "us"},
		"csnet.server.queue_depth_hw":     {dl.gauge("csnet.server.queue_depth.hw"), "count"},
		"csnet.server.shed":               {dl.counter("csnet.server.shed"), "count"},
		"kv.serve_us.mean":                {r.serveUs.value(), "us"},
		"kv.self_us.mean":                 {r.selfUs.value(), "us"},
		"store.engine_us.mean":            {meanOf(r.engineUs), "us"},
		"store.engine_us.p99":             {percentile(r.engineUs, 0.99), "us"},
		"store.engine_calls_per_op":       {float64(r.engineCalls) / float64(traced.ops.ok()), "count/op"},
		"store.wal.appends_per_write":     {ratio(dl.counter("store.wal.appends"), float64(plain.ops.sets)), "count/op"},
		"store.wal.bytes_per_user_byte":   {ratio(dl.counter("store.wal.append_bytes"), userBytes), "B/B"},
		"disk.write_bytes_per_user_byte":  {ratio(dl.io("write_bytes"), userBytes), "B/B"},
		"store.wal.fsyncs_per_s":          {dl.counter("store.wal.fsyncs") / sec, "1/s"},
		"store.wal.fsync_us.mean":         {fsyncNs / 1e3, "us"},
		"store.wal.snapshots":             {dl.counter("store.wal.snapshots"), "count"},
		"store.wal.snapshot_ms.mean":      {snapNs / 1e6, "ms"},
		"go.gc_cycles_per_kop":            {float64(dl.after.gcCycles-dl.before.gcCycles) / ops * 1e3, "count/kop"},
		"go.gc_pause_us_total":            {float64(dl.after.gcPauseNs-dl.before.gcPauseNs) / 1e3, "us"},
		"trace.overhead_pct":              {100 * (cpuPerOp(traced) - cpuPerOp(plain)) / cpuPerOp(plain), "%"},
		"trace.ambiguous_links":           {float64(r.ambiguous), "count"},
		"trace.unlinked_spans":            {float64(r.unlinked), "count"},
		"trace.reconcile_residual_pct":    {r.reconcileResidualPct, "%"},
	}
}

func meanOf(v []float64) float64 {
	var m mean
	for _, x := range v {
		m.add(x)
	}
	return m.value()
}

// windowStamp describes a window, with one row per slice so the
// run-to-run spread of each estimator can be studied offline.
func windowStamp(w window) map[string]any {
	var rows [][7]float64
	for _, s := range w.slices {
		rows = append(rows, [7]float64{math.Round(s.ops / s.seconds), s.cpuUs / s.ops, s.getP50, s.getP99, s.setP50, s.setP99, s.stealMs})
	}
	var usedIdx []int
	for _, s := range w.slices {
		if s.used {
			usedIdx = append(usedIdx, s.n)
		}
	}
	gets, sets := sortedUs(w.ops.getLat), sortedUs(w.ops.setLat)
	return map[string]any{
		"slice_columns": "ops_s cpu_us_per_op get_p50_us get_p99_us set_p50_us set_p99_us steal_ms",
		"slices":        rows,
		"used_slices":   usedIdx,
		"whole_window":  [6]float64{float64(w.ops.ok()) / w.elapsed.Seconds(), cpuPerOp(w), percentile(gets, 0.5), percentile(gets, 0.99), percentile(sets, 0.5), percentile(sets, 0.99)},
		"seconds":       w.elapsed.Seconds(), "get_samples": len(w.ops.getLat), "set_samples": len(w.ops.setLat),
		"failed": w.ops.failed, "callers": w.callers, "client_conns": w.conns, "snapshot_cycles": w.snapshotCycles,
		"max_rss_mb_before": float64(w.before.maxRSSKB) / 1024, "max_rss_mb_after": float64(w.after.maxRSSKB) / 1024,
	}
}

// stamp records what a result depends on besides the code under test.
func stamp(cfg config, nproc int) map[string]any {
	s := map[string]any{
		"workload": cfg.w.name, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"commit": envOr("KVBENCH_COMMIT", "unknown"), "source_sha256": sourceDigest("."),
		"go": runtime.Version(), "nproc": nproc, "gomaxprocs": runtime.GOMAXPROCS(0),
		"fsync": "none (in-memory)", "snapshot_bytes": 0, "shards": cfg.w.shards,
	}
	if cfg.w.shards == 0 {
		s["shards"] = store.DefaultShards
	}
	if cfg.w.window > 0 {
		s["in_flight"] = cfg.w.window
	}
	if cfg.w.durable {
		s["fsync"] = fmt.Sprintf("%s/%s", fsyncPolicy, fsyncInterval)
		s["snapshot_bytes"] = snapshotBytes
	}
	return s
}

// sourceDigest fingerprints the Go sources under root, so a result
// names the code it measured even where no version control is at hand.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

func envOr(k, def string) string {
	if v := os.Getenv(k); v != "" {
		return v
	}
	return def
}
