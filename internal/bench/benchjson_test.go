package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestMain runs the package and then files every benchmark family's rows
// of the run into its BENCH_*.json, so one file covers every sub-benchmark.
func TestMain(m *testing.M) {
	code := m.Run()
	writeBenchJSON("BENCH_SCAN_OUT", "BENCH_scan.json", &scanMu, scanResults)
	writeBenchJSON("BENCH_RLS_OUT", "BENCH_rls.json", &rlsMu, rlsResults)
	writeBenchJSON("BENCH_INGEST_OUT", "BENCH_ingest.json", &ingestMu, ingestResults)
	writeBenchJSON("BENCH_ANN_OUT", "BENCH_ann.json", &annMu, annResults)
	os.Exit(code)
}

// writeBenchJSON merges one family's rows, guarded by mu, into its file:
// the path in env when set, else def. A run without rows writes nothing.
func writeBenchJSON[T any](env, def string, mu *sync.Mutex, rows map[string]T) {
	mu.Lock()
	defer mu.Unlock()
	if len(rows) == 0 {
		return
	}
	path := os.Getenv(env)
	if path == "" {
		path = def
	}
	if err := mergeBenchJSON(path, rows); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return
	}
	fmt.Printf("benchmark results written to %s\n", path)
}

// mergeBenchJSON writes rows into the JSON object at path: each replaces
// the row of the same name and every other row is kept, so a run that
// selects some sub-benchmarks (-bench 'BenchmarkScan/edr') leaves the rest
// of a committed file as it was. A missing file starts empty.
func mergeBenchJSON[T any](path string, rows map[string]T) error {
	all := map[string]json.RawMessage{}
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
	case err != nil:
		return err
	default:
		if err := json.Unmarshal(data, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	for name, row := range rows {
		if all[name], err = json.Marshal(row); err != nil {
			return err
		}
	}
	if data, err = json.MarshalIndent(all, "", "  "); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// TestMergeBenchJSONKeepsOtherRows: a run over a subset of the rows
// replaces those rows, adds new ones and keeps the rest byte for byte.
func TestMergeBenchJSONKeepsOtherRows(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_scan.json")
	full := map[string]scanBenchResult{
		"dtw/pss/pruned": {NsPerOp: 1.5, Candidates: 7},
		"edr/pss/pruned": {NsPerOp: 2.5, Candidates: 9},
	}
	if err := mergeBenchJSON(path, full); err != nil {
		t.Fatal(err)
	}
	subset := map[string]scanBenchResult{
		"edr/pss/pruned":    {NsPerOp: 3.5, Candidates: 11},
		"edr/exacts/pruned": {NsPerOp: 4.5},
	}
	if err := mergeBenchJSON(path, subset); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]scanBenchResult
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	want := map[string]scanBenchResult{
		"dtw/pss/pruned":    full["dtw/pss/pruned"],
		"edr/pss/pruned":    subset["edr/pss/pruned"],
		"edr/exacts/pruned": subset["edr/exacts/pruned"],
	}
	if len(got) != len(want) {
		t.Fatalf("file holds %d rows, want %d:\n%s", len(got), len(want), data)
	}
	for name, row := range want {
		if got[name] != row {
			t.Errorf("row %s: %+v, want %+v", name, got[name], row)
		}
	}
}
