package traj

import (
	"bufio"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"

	"simsub/internal/geo"
)

// WriteCSV writes trajectories in the flat CSV format
// "id,seq,x,y,t" with one row per point, preceded by a header row. A NaN
// or ±Inf coordinate, which ReadCSV refuses, is an error wrapping
// ErrNonFiniteCoordinate, returned before anything is written.
func WriteCSV(w io.Writer, ts []Trajectory) error {
	for _, t := range ts {
		if err := checkFinite(t.Points); err != nil {
			return fmt.Errorf("traj: trajectory %d: %w", t.ID, err)
		}
	}
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"id", "seq", "x", "y", "t"}); err != nil {
		return err
	}
	row := make([]string, 5)
	for _, t := range ts {
		for i, p := range t.Points {
			row[0] = strconv.Itoa(t.ID)
			row[1] = strconv.Itoa(i)
			row[2] = strconv.FormatFloat(p.X, 'g', -1, 64)
			row[3] = strconv.FormatFloat(p.Y, 'g', -1, 64)
			row[4] = strconv.FormatFloat(p.T, 'g', -1, 64)
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// Typed ingestion errors. ReadCSV and the GPS-dump readers wrap these
// with line context, so callers can errors.Is-match the cause — the same
// validation the wire boundary applies in api.Trajectory.ToTraj.
var (
	// ErrNonFiniteCoordinate marks a NaN or ±Inf coordinate in an input
	// file. Non-finite values poison every distance kernel downstream.
	ErrNonFiniteCoordinate = errors.New("non-finite coordinate")
	// ErrDuplicateID marks a trajectory ID that re-appears after its point
	// group ended — a corrupt or mis-sorted file that would silently split
	// one logical trajectory into several.
	ErrDuplicateID = errors.New("duplicate trajectory id")
)

// ReadCSV reads trajectories from the format produced by WriteCSV. Points
// must be grouped by trajectory id and ordered by seq within each group.
// NaN/Inf coordinates and re-appearing trajectory IDs are rejected with
// errors wrapping ErrNonFiniteCoordinate / ErrDuplicateID.
func ReadCSV(r io.Reader) ([]Trajectory, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("traj: reading CSV header: %w", err)
	}
	if len(header) != 5 {
		return nil, fmt.Errorf("traj: expected 5 CSV columns, got %d", len(header))
	}
	var out []Trajectory
	seen := make(map[int]bool)
	cur := -1
	line := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("traj: reading CSV: %w", err)
		}
		line++
		id, err := strconv.Atoi(rec[0])
		if err != nil {
			return nil, fmt.Errorf("traj: line %d: bad id %q", line, rec[0])
		}
		x, err1 := strconv.ParseFloat(rec[2], 64)
		y, err2 := strconv.ParseFloat(rec[3], 64)
		tm, err3 := strconv.ParseFloat(rec[4], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("traj: line %d: bad coordinates", line)
		}
		if !isFinite(x) || !isFinite(y) || !isFinite(tm) {
			return nil, fmt.Errorf("traj: line %d: %w", line, ErrNonFiniteCoordinate)
		}
		if id != cur {
			if seen[id] {
				return nil, fmt.Errorf("traj: line %d: %w %d", line, ErrDuplicateID, id)
			}
			seen[id] = true
			out = append(out, Trajectory{ID: id})
			cur = id
		}
		last := &out[len(out)-1]
		last.Points = append(last.Points, geo.Point{X: x, Y: y, T: tm})
	}
	return out, nil
}

func isFinite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// SaveCSV writes trajectories to the named file in CSV format.
func SaveCSV(path string, ts []Trajectory) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	bw := bufio.NewWriter(f)
	if err := WriteCSV(bw, ts); err != nil {
		return err
	}
	return bw.Flush()
}

// LoadCSV reads trajectories from the named CSV file.
func LoadCSV(path string) ([]Trajectory, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCSV(bufio.NewReader(f))
}
