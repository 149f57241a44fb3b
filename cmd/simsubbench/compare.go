package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json compare reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	buf, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(buf, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// readRecords reads a result file: any sequence of JSON values, each a
// record or an array of records — what -out appends, and what a committed
// baseline holds.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	var out []record
	for {
		var raw json.RawMessage
		if err := dec.Decode(&raw); errors.Is(err, io.EOF) {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		var many []record
		if json.Unmarshal(raw, &many) == nil {
			out = append(out, many...)
			continue
		}
		var one record
		if err := json.Unmarshal(raw, &one); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, one)
	}
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) does (the exclusive method),
// which is the rule the driver's spread check uses.
func quartiles(values []float64) (q1, q2, q3 float64) {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	if len(x) == 1 {
		return x[0], x[0], x[0]
	}
	const n = 4
	m := len(x) + 1
	cut := func(i int) float64 {
		j := min(max(i*m/n, 1), len(x)-1)
		delta := float64(i*m - j*n)
		return (x[j-1]*(n-delta) + x[j]*delta) / n
	}
	return cut(1), cut(2), cut(3)
}

// side summarizes one file's runs of one metric on one workload.
type side struct {
	n          int
	q1, q2, q3 float64
	bySeed     map[int64]float64 // the seed's last value, for the clock-free metrics
}

func (s side) spread() float64 {
	if s.q2 == 0 {
		return 0
	}
	return (s.q3 - s.q1) / s.q2
}

func summarize(recs []record) map[string]map[string]side {
	vals := map[string]map[string][]float64{}
	seeds := map[string]map[string]map[int64]float64{}
	for _, r := range recs {
		if r.Trace {
			continue
		}
		if vals[r.Workload] == nil {
			vals[r.Workload] = map[string][]float64{}
			seeds[r.Workload] = map[string]map[int64]float64{}
		}
		for name, m := range r.Metrics {
			vals[r.Workload][name] = append(vals[r.Workload][name], m.Value)
			if seeds[r.Workload][name] == nil {
				seeds[r.Workload][name] = map[int64]float64{}
			}
			seeds[r.Workload][name][r.Provenance.Seed] = m.Value
		}
	}
	out := map[string]map[string]side{}
	for w, ms := range vals {
		out[w] = map[string]side{}
		for name, v := range ms {
			q1, q2, q3 := quartiles(v)
			out[w][name] = side{len(v), q1, q2, q3, seeds[w][name]}
		}
	}
	return out
}

// clockFree are the end-to-end metrics that are functions of the seed
// alone: two runs of one seed on one commit report the same value (the smoke
// test holds them to that).
var clockFree = map[string]bool{"approx_ratio": true, "mean_rank": true, "recall_at_k": true, "disk_bytes_per_point": true}

// exactBound is how far a clock-free metric may move between two runs of
// one seed: those runs feed the system the same inputs, so any difference
// is a change of behaviour, not noise.
const exactBound = 0.001

// worseBy returns how much worse b is than a, as a share of a.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// worstPerSeed returns the largest worseBy over the seeds both sides ran,
// and how many there are.
func worstPerSeed(a, b side, better string) (worst float64, shared int) {
	for seed, va := range a.bySeed {
		if vb, ok := b.bySeed[seed]; ok {
			if w := worseBy(va, vb, better); shared == 0 || w > worst {
				worst = w
			}
			shared++
		}
	}
	return worst, shared
}

// compareMain implements `simsubbench compare A.json B.json`: for every
// workload and end-to-end metric, both sides' medians and quartiles, how
// much worse B's median is than A's, and the bound BENCHMARK.json fixes.
// A pair is unresolved when either side's inter-quartile spread exceeds
// the bound — the runs cannot tell a regression of that size from noise —
// and a breach when B is worse than A by more than the bound.
//
// The clock-free metrics are judged seed by seed wherever both sides ran a
// seed: the two runs saw identical inputs, so B may be worse than A by no
// more than exactBound on any of them, whatever the spread across seeds —
// BENCHMARK.json's bound for such a metric has to cover that spread, because
// the driver runs every seed once.
//
// Any breach, and any workload or metric that one side lacks, makes the
// exit code 1.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: simsubbench compare A.json B.json")
		return 2
	}
	root, err := checkoutRoot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "simsubbench: %v\n", err)
		return 2
	}
	bf, err := readBenchmarkFile(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simsubbench: %v\n", err)
		return 2
	}
	var sides [2]map[string]map[string]side
	for i, path := range args {
		recs, err := readRecords(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "simsubbench: %v\n", err)
			return 2
		}
		sides[i] = summarize(recs)
	}
	breaches, unresolved, missing := 0, 0, 0
	for _, w := range bf.Workloads {
		a, b := sides[0][w.Name], sides[1][w.Name]
		if a == nil || b == nil {
			fmt.Printf("%s: MISSING from one side\n", w.Name)
			missing++
			continue
		}
		fmt.Printf("%s\n  %-22s %-6s %34s %34s %8s %6s  %s\n", w.Name, "metric", "unit", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "worse", "bound", "verdict")
		for _, e := range bf.EndToEnd {
			sa, oka := a[e.Name]
			sb, okb := b[e.Name]
			if !oka || !okb {
				fmt.Printf("  %-22s MISSING from one side\n", e.Name)
				missing++
				continue
			}
			worse, bound, verdict := worseBy(sa.q2, sb.q2, e.Better), e.Bound, "ok"
			perSeed, shared := worstPerSeed(sa, sb, e.Better)
			switch {
			case clockFree[e.Name] && shared > 0:
				worse, bound = perSeed, exactBound
				verdict = fmt.Sprintf("ok, seed by seed (%d)", shared)
				if worse > bound {
					verdict = fmt.Sprintf("BREACH, seed by seed (%d)", shared)
					breaches++
				}
			case sa.spread() > e.Bound || sb.spread() > e.Bound:
				verdict = "unresolved"
				unresolved++
			case worse > e.Bound:
				verdict = "BREACH"
				breaches++
			}
			cell := func(s side) string { return fmt.Sprintf("%.5g [%.5g, %.5g] (%d)", s.q2, s.q1, s.q3, s.n) }
			fmt.Printf("  %-22s %-6s %34s %34s %+7.1f%% %5.1f%%  %s\n", e.Name, e.Unit, cell(sa), cell(sb), 100*worse, 100*bound, verdict)
		}
	}
	fmt.Printf("%d breach(es), %d unresolved, %d missing\n", breaches, unresolved, missing)
	if breaches > 0 || missing > 0 {
		return 1
	}
	return 0
}
