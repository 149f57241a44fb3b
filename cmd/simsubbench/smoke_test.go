package main

import (
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// contract is the part of BENCHMARK.json the smoke test holds the program
// to.
type contract struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(buf, &c); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return c
}

// TestContract holds the program's metric and workload tables to
// BENCHMARK.json: same names, same units, same directions, same reasons.
func TestContract(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.Name || c.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, c.Workloads[i].Name, c.Workloads[i].Why, w.Name, w.Why)
		}
	}
	if len(c.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(c.EndToEnd), len(e2eMetrics))
	}
	for i, d := range e2eMetrics {
		if got := c.EndToEnd[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, got, d)
		}
	}
	if len(c.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(c.PerLayer), len(layerMetrics))
	}
	for i, d := range layerMetrics {
		if got := c.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, got, d)
		}
	}
}

func wantNames(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	slices.Sort(out)
	return out
}

// TestSmoke runs every workload at smoke scale, timed and traced, twice
// with one seed: each run emits exactly the metrics of its mode, each with
// its unit, no operation fails, and whatever does not depend on the clock
// repeats exactly.
func TestSmoke(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	scratch := t.TempDir()
	run := func(w workload, trace bool) *record {
		t.Helper()
		cfg := config{Seed: 7, Seconds: 0.2, Trace: trace, Smoke: true, Scratch: scratch, Log: t.Logf}
		rec, err := runWorkload(cfg, w, "smoke", root)
		if err != nil {
			t.Fatalf("%s (trace=%v): %v", w.Name, trace, err)
		}
		if rec.Failed != 0 || !rec.Correct || rec.Attempted < 1 {
			t.Fatalf("%s (trace=%v): attempted %d, failed %d: %v", w.Name, trace, rec.Attempted, rec.Failed, rec.Reasons)
		}
		defs := e2eMetrics
		if trace {
			defs = layerMetrics
		}
		if got, want := slices.Sorted(maps.Keys(rec.Metrics)), wantNames(defs); !slices.Equal(got, want) {
			t.Fatalf("%s (trace=%v) emitted %v, want %v", w.Name, trace, got, want)
		}
		for _, d := range defs {
			if rec.Metrics[d.Name].Unit != d.Unit {
				t.Errorf("%s: %s has unit %q, want %q", w.Name, d.Name, rec.Metrics[d.Name].Unit, d.Unit)
			}
		}
		return rec
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			a, b := run(w, false), run(w, false)
			for name := range clockFree {
				if a.Metrics[name].Value != b.Metrics[name].Value {
					t.Errorf("%s differs between two runs of one seed: %v and %v", name, a.Metrics[name].Value, b.Metrics[name].Value)
				}
			}
			for _, d := range e2eMetrics {
				if a.Metrics[d.Name].Value <= 0 {
					t.Errorf("%s is %v; end-to-end metrics are never 0", d.Name, a.Metrics[d.Name].Value)
				}
			}
			ta, tb := run(w, true), run(w, true)
			if w.Smoke.Clients == 1 {
				const name = "core.candidates_per_query"
				if ta.Metrics[name].Value != tb.Metrics[name].Value {
					t.Errorf("%s differs between two traced runs of one seed: %v and %v", name, ta.Metrics[name].Value, tb.Metrics[name].Value)
				}
			}
			if _, err := os.Stat(filepath.Join(scratch, "trace.json")); err != nil {
				t.Errorf("traced run left no trace file: %v", err)
			}
		})
	}
}

// TestQuartiles pins the quartile rule to the values Python's
// statistics.quantiles(values, n=4) gives, since the driver's spread check
// and compare must agree.
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{10, 2, 7, 4, 1})
	if q1 != 1.5 || q2 != 4 || q3 != 8.5 {
		t.Errorf("quartiles of {10,2,7,4,1} = %v %v %v, want 1.5 4 8.5", q1, q2, q3)
	}
}

// TestCompareVerdicts holds compare's exit code to its rules: equal files
// pass; a workload one side lacks, or a clock-free metric that moved on a
// seed both sides ran, fails — however wide BENCHMARK.json's bound is.
func TestCompareVerdicts(t *testing.T) {
	records := func(skip string, approxRatio float64) string {
		var recs []record
		for _, w := range workloads {
			if w.Name == skip {
				continue
			}
			for seed := int64(1); seed <= 3; seed++ {
				ms := map[string]metric{}
				for _, d := range e2eMetrics {
					ms[d.Name] = metric{Value: 10 + float64(seed), Unit: d.Unit}
				}
				ms["approx_ratio"] = metric{Value: approxRatio, Unit: "ratio"}
				recs = append(recs, record{Schema: recordSchema, Workload: w.Name, Metrics: ms, Provenance: provenance{Seed: seed}})
			}
		}
		buf, err := json.Marshal(recs)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "runs.json")
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := records("", 1.2)
	for _, c := range []struct {
		name string
		b    string
		want int
	}{
		{"same", records("", 1.2), 0},
		{"workload missing", records("router_mixed", 1.2), 1},
		{"clock-free metric 1% worse on every seed", records("", 1.212), 1},
		{"clock-free metric better", records("", 1.1), 0},
	} {
		if got := compareMain([]string{base, c.b}); got != c.want {
			t.Errorf("%s: compare exited %d, want %d", c.name, got, c.want)
		}
	}
}
