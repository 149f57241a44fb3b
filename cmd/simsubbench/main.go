// Command simsubbench is the repository's end-to-end benchmark. It boots
// the real serving stack in-process on loopback HTTP (client -> router ->
// server -> engine -> core/sim/rl/ann -> storage), replays seeded operation
// lists in a closed loop, checks the answers against an exact oracle, and
// prints the metrics BENCHMARK.json names. README.md in this directory has
// the metric and workload tables and the rules the measurements follow.
//
// Usage:
//
//	go run -C cmd/simsubbench . --workload exact_scan --seed 1 --seconds 28 --trace 0
//	go run -C cmd/simsubbench . --workload all -out runs.json
//	go run -C cmd/simsubbench . compare A.json B.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// resultLine is the driver's contract: the last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one workload run as filed by -out: the result line plus what a
// reader needs to judge it.
type record struct {
	Schema     string            `json:"schema"`
	Workload   string            `json:"workload"`
	Trace      bool              `json:"trace"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Reasons    []string          `json:"failure_reasons,omitempty"`
	Metrics    map[string]metric `json:"metrics"`
	Info       map[string]metric `json:"info,omitempty"`
	Samples    map[string]int    `json:"samples,omitempty"`
	Provenance provenance        `json:"provenance"`
}

type provenance struct {
	Commit     string     `json:"commit"`
	GoVersion  string     `json:"go_version"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	NumCPU     int        `json:"nproc"`
	Seed       int64      `json:"seed"`
	Scale      string     `json:"scale"`
	Seconds    float64    `json:"seconds"`
	Corpus     corpusInfo `json:"corpus"`
	Clients    int        `json:"clients"`
	Cycles     int        `json:"cycles"`
	Fsync      string     `json:"fsync_policy"`
	Snapshot   string     `json:"snapshot_policy"`
	WallS      float64    `json:"wall_s"`
	When       string     `json:"when"`
}

const recordSchema = "simsubbench/1"

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("simsubbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+" or all")
		seed    = fs.Int64("seed", 1, "seed of every generated input")
		seconds = fs.Float64("seconds", 28, "measuring budget per workload; at least three cycles run whatever it is")
		trace   = fs.Int("trace", 0, "1 runs the traced per-layer run instead of the timed one")
		scale   = fs.String("scale", "full", "full (the benchmark) or smoke (hundreds of trajectories, for tests)")
		outPath = fs.String("out", "", "append one JSON record per workload run to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "simsubbench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *scale != "full" && *scale != "smoke" {
		fmt.Fprintf(os.Stderr, "simsubbench: unknown -scale %q\n", *scale)
		return 2
	}
	var todo []workload
	if *name == "all" {
		todo = workloads
	} else if w, ok := workloadByName(*name); ok {
		todo = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "simsubbench: unknown workload %q (want %s or all)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}

	// Two cores is what the reference box has; pinning it keeps a run on a
	// larger machine comparable in shape, if not in speed.
	runtime.GOMAXPROCS(2)

	root, err := checkoutRoot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "simsubbench: %v\n", err)
		return 1
	}
	scratch := filepath.Join(root, ".bench_build", "simsubbench")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "simsubbench: %v\n", err)
		return 1
	}
	cfg := config{Seed: *seed, Seconds: *seconds, Trace: *trace != 0, Smoke: *scale == "smoke", Scratch: scratch,
		Log: func(format string, args ...any) { fmt.Fprintf(os.Stderr, "  "+format+"\n", args...) }}

	line := resultLine{Correct: true, Metrics: map[string]metric{}}
	for _, w := range todo {
		rec, err := runWorkload(cfg, w, *scale, root)
		if err != nil {
			fmt.Fprintf(os.Stderr, "simsubbench: %s: %v\n", w.Name, err)
			return 1
		}
		printRecord(os.Stdout, rec)
		if *outPath != "" {
			if err := appendRecord(*outPath, rec); err != nil {
				fmt.Fprintf(os.Stderr, "simsubbench: %v\n", err)
				return 1
			}
		}
		line.Correct = line.Correct && rec.Correct
		line.Attempted += rec.Attempted
		line.Failed += rec.Failed
		for k, v := range rec.Metrics {
			if len(todo) > 1 {
				k = w.Name + "/" + k
			}
			line.Metrics[k] = v
		}
	}
	buf, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simsubbench: %v\n", err)
		return 1
	}
	fmt.Println(string(buf))
	if !line.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.Name
	}
	return out
}

// runWorkload runs one workload in the configured mode and files what it
// measured.
func runWorkload(cfg config, w workload, scale, root string) (*record, error) {
	if !cfg.Trace {
		cfg.Log("%s: %s", w.Name, w.Why)
	}
	start := time.Now()
	h, err := newHarness(cfg, w)
	if err != nil {
		return nil, err
	}
	defer h.cleanup()
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	var out *outcome
	if cfg.Trace {
		out, err = h.runTrace(ctx)
	} else {
		out, err = h.runE2E(ctx)
	}
	if err != nil {
		return nil, err
	}
	snap := "after half of the set-up load"
	if h.p.SnapshotEvery > 0 {
		snap += fmt.Sprintf(", then every %d streamed records", h.p.SnapshotEvery)
	}
	return &record{
		Schema: recordSchema, Workload: w.Name, Trace: cfg.Trace,
		Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Reasons: out.reasons,
		Metrics: out.metrics.wire(), Info: out.info, Samples: out.samples,
		Provenance: provenance{
			Commit: commitOf(root), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
			Seed: cfg.Seed, Scale: scale, Seconds: cfg.Seconds, Corpus: out.corpus, Clients: h.p.Clients, Cycles: out.cycles,
			Fsync:    "storage defaults: fsync on segment roll, snapshot and close, not per append",
			Snapshot: snap, WallS: time.Since(start).Seconds(), When: start.UTC().Format(time.RFC3339),
		},
	}, nil
}

// printRecord renders one run for a reader: every metric by name with its
// unit and the sample count behind it.
func printRecord(f *os.File, r *record) {
	mode := "timed"
	if r.Trace {
		mode = "traced"
	}
	fmt.Fprintf(f, "%s (%s, seed %d, %d trajectories / %d points, %d client(s), %d cycle(s), %.1fs wall)\n",
		r.Workload, mode, r.Provenance.Seed, r.Provenance.Corpus.Trajectories, r.Provenance.Corpus.Points,
		r.Provenance.Clients, r.Provenance.Cycles, r.Provenance.WallS)
	printMetrics(f, r.Metrics, r.Samples, metricOrder(r.Trace))
	if len(r.Info) > 0 {
		fmt.Fprintln(f, "  -- not gated --")
		printMetrics(f, r.Info, nil, slices.Sorted(maps.Keys(r.Info)))
	}
	fmt.Fprintf(f, "  attempted %d, failed %d\n", r.Attempted, r.Failed)
	for _, reason := range r.Reasons {
		fmt.Fprintf(f, "  FAILED: %s\n", reason)
	}
}

func metricOrder(trace bool) []string {
	defs := e2eMetrics
	if trace {
		defs = layerMetrics
	}
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	return out
}

func printMetrics(f *os.File, ms map[string]metric, samples map[string]int, order []string) {
	for _, name := range order {
		m, ok := ms[name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("  %-36s %14.6g %-6s", name, m.Value, m.Unit)
		if n := samples[name]; n > 0 {
			line += fmt.Sprintf(" n=%d", n)
		}
		fmt.Fprintln(f, strings.TrimRight(line, " "))
	}
}

func appendRecord(path string, r *record) (err error) {
	buf, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	_, err = f.Write(append(buf, '\n'))
	return err
}

// checkoutRoot finds the directory holding BENCHMARK.json, walking up from
// the working directory (go run -C leaves it at cmd/simsubbench). Every
// file the benchmark writes goes under its .bench_build.
func checkoutRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}

// commitOf names the commit under test without starting a process:
// SIMSUBBENCH_COMMIT when set, else what .git/HEAD resolves to, else
// "unknown" (the driver's checkout is not a git repository).
func commitOf(root string) string {
	if c := os.Getenv("SIMSUBBENCH_COMMIT"); c != "" {
		return c
	}
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	s := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(s, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(root, ".git", ref))
		if err != nil {
			return "unknown"
		}
		s = strings.TrimSpace(string(b))
	}
	return s
}
