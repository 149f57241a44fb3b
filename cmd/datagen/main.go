// Command datagen generates synthetic trajectory datasets (Porto-like,
// Harbin-like, Sports-like; see DESIGN.md for the substitution rationale)
// and writes them as CSV or NDJSON — or, with -in, converts a real
// GPS dump (Porto taxi trips, Microsoft T-Drive logs) into any of those
// formats, or directly into a persistent segment store that simsubd
// -data-dir can boot from without replaying a load.
//
// Usage:
//
//	datagen -kind porto -n 1000 -seed 1 -format csv -out porto.csv
//	datagen -in train.csv -informat porto -format ndjson -out porto.ndjson
//	datagen -in tdrive/ -informat tdrive -format segments -out /var/lib/simsub
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"

	"simsub/internal/dataset"
	"simsub/internal/storage"
	"simsub/internal/traj"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("datagen: ")
	var (
		kindName = flag.String("kind", "porto", "dataset kind: porto, harbin or sports")
		n        = flag.Int("n", 1000, "number of trajectories to generate, or cap when converting with -in (0 = all)")
		seed     = flag.Int64("seed", 1, "random seed")
		format   = flag.String("format", "csv", "output format: csv, ndjson or segments")
		out      = flag.String("out", "", "output file, or directory for -format segments (default stdout)")
		minLen   = flag.Int("minlen", 0, "minimum trajectory length (0 = family default)")
		maxLen   = flag.Int("maxlen", 0, "maximum trajectory length (0 = family default)")
		in       = flag.String("in", "", "convert a real GPS dump (file, or directory of files for tdrive) instead of generating")
		informat = flag.String("informat", "porto", "input format for -in: porto (trip CSV with JSON polylines) or tdrive (per-fix taxi logs)")
	)
	flag.Parse()

	var ts []traj.Trajectory
	if *in != "" {
		var err error
		ts, err = readReal(*in, *informat, *n)
		if err != nil {
			log.Fatal(err)
		}
	} else {
		kind, err := dataset.KindByName(*kindName)
		if err != nil {
			log.Fatal(err)
		}
		ts = dataset.Generate(dataset.Config{
			Kind: kind, N: *n, Seed: *seed, MinLen: *minLen, MaxLen: *maxLen,
		})
	}

	if *format == "segments" {
		if *out == "" {
			log.Fatal("-format segments needs -out DIR")
		}
		st, _, err := storage.Open(*out, storage.Options{})
		if err != nil {
			log.Fatal(err)
		}
		if st.Len() > 0 {
			log.Fatalf("%s already holds %d trajectories; refusing to append (point -out at an empty directory)", *out, st.Len())
		}
		if _, err := st.Append(ts); err != nil {
			log.Fatal(err)
		}
		if err := st.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %d trajectories (%d points) to segment store %s\n",
			len(ts), dataset.TotalPoints(ts), *out)
		return
	}

	w := io.Writer(os.Stdout)
	var f *os.File
	if *out != "" {
		var err error
		if f, err = os.Create(*out); err != nil {
			log.Fatal(err)
		}
		w = f
	}
	var err error
	switch *format {
	case "csv":
		err = traj.WriteCSV(w, ts)
	case "ndjson":
		err = traj.WriteNDJSON(w, ts)
	default:
		err = fmt.Errorf("unknown format %q", *format)
	}
	if err != nil {
		log.Fatal(err)
	}
	// a failed Close can lose what was written: report it, not success
	if f != nil {
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "wrote %d trajectories (%d points)\n",
		len(ts), dataset.TotalPoints(ts))
}

// readReal converts a real GPS dump into trajectories. Porto input is a
// single trip CSV; T-Drive input may be a single log or a directory of
// per-taxi logs (the dataset ships one file per taxi), concatenated in
// name order so each taxi's fixes stay contiguous. maxN caps how many
// trajectories are read (0 = all).
func readReal(path, format string, maxN int) ([]traj.Trajectory, error) {
	switch format {
	case "porto":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return traj.ReadPortoCSV(f, maxN)
	case "tdrive":
		info, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			f, err := os.Open(path)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			return traj.ReadTDriveCSV(f, maxN)
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return nil, err
		}
		var names []string
		for _, e := range entries {
			if !e.IsDir() {
				names = append(names, e.Name())
			}
		}
		sort.Strings(names)
		readers := make([]io.Reader, 0, len(names))
		closers := make([]io.Closer, 0, len(names))
		defer func() {
			for _, c := range closers {
				c.Close()
			}
		}()
		for _, name := range names {
			f, err := os.Open(filepath.Join(path, name))
			if err != nil {
				return nil, err
			}
			readers = append(readers, f)
			closers = append(closers, f)
		}
		return traj.ReadTDriveCSV(io.MultiReader(readers...), maxN)
	default:
		return nil, fmt.Errorf("unknown -informat %q (want porto or tdrive)", format)
	}
}
