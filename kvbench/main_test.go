package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"strconv"
	"strings"
	"testing"

	"pdcedu/internal/csnet"
	"pdcedu/internal/store"
)

type spec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload briefly in both modes and checks that
// the result line is well-formed and carries exactly the metrics
// BENCHMARK.json names for that mode, each with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for trace, want := range [][]struct{ Name, Unit string }{sp.EndToEnd, sp.PerLayer} {
			t.Run(w.name+"/trace"+strconv.Itoa(trace), func(t *testing.T) {
				seconds := "1.5"
				if w.durable {
					seconds = "12" // long enough for the snapshot-cycle check
				}
				var out, errb bytes.Buffer
				args := []string{"--workload", w.name, "--seed", "7", "--seconds", seconds, "--trace", strconv.Itoa(trace), "--workdir", t.TempDir()}
				if code := run(args, &out, &errb); code != 0 {
					t.Fatalf("exit %d: %s", code, errb.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res output
				dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&res); err != nil {
					t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
				}
				if !res.Correct || res.Attempted == 0 || res.Failed > res.Attempted {
					t.Fatalf("result %+v", res)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
				}
			})
		}
	}
}

// errEngine is an engine whose log has failed.
type errEngine struct{ store.Engine }

func (errEngine) Err() error { return errors.New("wal poisoned") }

// TestTimedEngineForwardsErr pins that the timing wrapper keeps the KV
// handler's ack-durable check armed: a write on a poisoned engine must
// be answered with an error, wrapper or not.
func TestTimedEngineForwardsErr(t *testing.T) {
	te := &timedEngine{e: errEngine{store.NewSharded(store.Options{})}, t: newTracer()}
	resp := csnet.NewKVHandlerOn(te).Serve(csnet.Request{Op: csnet.OpSet, Key: keyName(1), Value: []byte("v")})
	if resp.Status != csnet.StatusError {
		t.Fatalf("set on a poisoned engine through the wrapper: status %s, want %s", resp.Status, csnet.StatusError)
	}
}

// TestAnalyze checks span linking, self time, the uncovered part of a
// coordinator span, ambiguity counting and the reconciliation.
func TestAnalyze(t *testing.T) {
	tr := newTracer()
	tr.restart(0, 0)
	tr.coord, tr.server, tr.engine = newSpanLog(8), newSpanLog(8), newSpanLog(8)
	// Coordinator get on key 1 over [0,100): one server span with 10ns
	// of queue wait over [20,60) and an engine call over [35,45).
	tr.coord.add(span{start: 0, end: 100, key: 1, get: true})
	tr.server.add(span{start: 30, end: 60, wait: 10, key: 1, node: 0, get: true})
	tr.engine.add(span{start: 35, end: 45, key: 1, node: 0, get: true})
	// Two overlapping coordinator sets on key 2 both contain a server
	// span: it is ambiguous.
	tr.coord.add(span{start: 200, end: 300, key: 2})
	tr.coord.add(span{start: 210, end: 290, key: 2, node: 1})
	tr.server.add(span{start: 230, end: 250, key: 2, node: 1})
	r, err := tr.analyze(true)
	if err != nil {
		t.Fatal(err)
	}
	if r.ambiguous != 1 || r.unlinked != 0 {
		t.Errorf("ambiguous %d unlinked %d, want 1 and 0", r.ambiguous, r.unlinked)
	}
	// Uncovered: 60ns of the get, and all of both sets (their only
	// child was not linked).
	if want := (60.0 + 100 + 80) / 1e3; r.uncoveredUs != want {
		t.Errorf("uncovered %vus, want %vus", r.uncoveredUs, want)
	}
	if got := r.selfUs.sum; got != (20.0+20)/1e3 {
		t.Errorf("kv self time %vus, want 0.04us", got)
	}
	if r.reconcileResidualPct != 0 {
		t.Errorf("residual %v%%", r.reconcileResidualPct)
	}
}

func TestValues(t *testing.T) {
	for _, size := range []int{16, 128} {
		v := make([]byte, size)
		putValue(v, 42, seqOf(3, 9))
		if !validValue(v, 42, size) {
			t.Errorf("size %d: own value rejected", size)
		}
		if validValue(v, 43, size) {
			t.Errorf("size %d: value accepted for another key", size)
		}
		v[size-1]++
		if validValue(v, 42, size) {
			t.Errorf("size %d: corrupted value accepted", size)
		}
	}
	if i, ok := keyIndex(keyName(99_999)); !ok || i != 99_999 {
		t.Errorf("keyIndex(keyName(99999)) = %d, %v", i, ok)
	}
}
