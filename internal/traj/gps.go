package traj

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"

	"simsub/internal/geo"
)

// Readers for the two real GPS corpora the SimSub paper evaluates on:
// the Porto taxi dataset (ECML/PKDD 15, one CSV row per trip with a JSON
// polyline sampled every 15 s) and Microsoft T-Drive (Beijing taxis, one
// CSV row per GPS fix). Both readers apply the same validation as
// ReadCSV — non-finite coordinates and re-appearing trajectory groups are
// typed errors — and assign dense output IDs, since the engine (or the
// persistent store) re-assigns global IDs at load time anyway.

// portoSampleInterval is the Porto dataset's fixed GPS sampling period.
const portoSampleInterval = 15.0 // seconds

// ReadPortoCSV reads the Porto taxi trip format: a headered CSV whose
// POLYLINE column holds a JSON array of [lon, lat] pairs sampled every
// 15 s, with x = longitude, y = latitude and timestamps synthesized at
// the 15 s cadence from the trip's TIMESTAMP column (0-based when the
// column is absent). Trips whose MISSING_DATA column is "True" and empty
// polylines are skipped. maxTrips > 0 caps how many trajectories are
// read; 0 reads all.
func ReadPortoCSV(r io.Reader, maxTrips int) ([]Trajectory, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("traj: reading Porto header: %w", err)
	}
	polyCol, tsCol, missCol := -1, -1, -1
	for i, name := range header {
		switch strings.ToUpper(strings.TrimSpace(name)) {
		case "POLYLINE":
			polyCol = i
		case "TIMESTAMP":
			tsCol = i
		case "MISSING_DATA":
			missCol = i
		}
	}
	if polyCol < 0 {
		return nil, fmt.Errorf("traj: Porto CSV has no POLYLINE column (header %v)", header)
	}
	var out []Trajectory
	line := 1
	for maxTrips <= 0 || len(out) < maxTrips {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("traj: reading Porto CSV: %w", err)
		}
		line++
		if missCol >= 0 && missCol < len(rec) && strings.EqualFold(strings.TrimSpace(rec[missCol]), "true") {
			continue
		}
		if polyCol >= len(rec) {
			return nil, fmt.Errorf("traj: line %d: row has no POLYLINE column", line)
		}
		var pairs [][]float64
		if err := json.Unmarshal([]byte(rec[polyCol]), &pairs); err != nil {
			return nil, fmt.Errorf("traj: line %d: bad POLYLINE: %w", line, err)
		}
		if len(pairs) == 0 {
			continue
		}
		t0 := 0.0
		if tsCol >= 0 && tsCol < len(rec) {
			if ts, err := strconv.ParseFloat(rec[tsCol], 64); err == nil && isFinite(ts) {
				t0 = ts
			}
		}
		pts := make([]geo.Point, len(pairs))
		for i, pr := range pairs {
			if len(pr) != 2 {
				return nil, fmt.Errorf("traj: line %d, point %d: POLYLINE pair has %d coordinates, want 2", line, i, len(pr))
			}
			if !isFinite(pr[0]) || !isFinite(pr[1]) {
				return nil, fmt.Errorf("traj: line %d, point %d: %w", line, i, ErrNonFiniteCoordinate)
			}
			pts[i] = geo.Point{X: pr[0], Y: pr[1], T: t0 + float64(i)*portoSampleInterval}
		}
		out = append(out, Trajectory{ID: len(out), Points: pts})
	}
	return out, nil
}

// ReadTDriveCSV reads the T-Drive taxi log format: headerless CSV rows
// "taxi_id,datetime,longitude,latitude" ordered by taxi then time, one
// trajectory per taxi (x = longitude, y = latitude, t = unix seconds). A
// taxi ID that re-appears after its row group ended wraps ErrDuplicateID;
// non-finite coordinates wrap ErrNonFiniteCoordinate. maxTaxis > 0 caps
// how many trajectories are read; 0 reads all.
func ReadTDriveCSV(r io.Reader, maxTaxis int) ([]Trajectory, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	var out []Trajectory
	seen := make(map[string]bool)
	cur := ""
	line := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("traj: reading T-Drive CSV: %w", err)
		}
		line++
		if len(rec) != 4 {
			return nil, fmt.Errorf("traj: line %d: expected 4 T-Drive columns, got %d", line, len(rec))
		}
		taxi := strings.TrimSpace(rec[0])
		if taxi != cur {
			if seen[taxi] {
				return nil, fmt.Errorf("traj: line %d: %w %s", line, ErrDuplicateID, taxi)
			}
			if maxTaxis > 0 && len(out) == maxTaxis {
				break
			}
			seen[taxi] = true
			out = append(out, Trajectory{ID: len(out)})
			cur = taxi
		}
		ts, err := time.Parse("2006-01-02 15:04:05", strings.TrimSpace(rec[1]))
		if err != nil {
			return nil, fmt.Errorf("traj: line %d: bad datetime %q: %w", line, rec[1], err)
		}
		x, err1 := strconv.ParseFloat(rec[2], 64)
		y, err2 := strconv.ParseFloat(rec[3], 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("traj: line %d: bad coordinates", line)
		}
		if !isFinite(x) || !isFinite(y) {
			return nil, fmt.Errorf("traj: line %d: %w", line, ErrNonFiniteCoordinate)
		}
		last := &out[len(out)-1]
		last.Points = append(last.Points, geo.Point{X: x, Y: y, T: float64(ts.Unix())})
	}
	return out, nil
}

// WriteNDJSON writes one JSON trajectory object per line —
// {"id":..,"points":[[x,y,t],..]} — the format POST /v2/load/stream
// ingests, through the trajectory encoder (AppendPoints' grammar, byte for
// byte what encoding/json writes). An NDJSON corpus can be produced and
// consumed incrementally at any size. A non-finite coordinate is an error
// wrapping ErrNonFiniteCoordinate.
func WriteNDJSON(w io.Writer, ts []Trajectory) error {
	const flushAt = 64 << 10
	buf := make([]byte, 0, 2*flushAt)
	for _, t := range ts {
		var err error
		if buf, err = appendRecord(buf, t); err != nil {
			return err
		}
		if len(buf) >= flushAt {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if len(buf) == 0 {
		return nil
	}
	_, err := w.Write(buf)
	return err
}

// ReadNDJSON reads the format produced by WriteNDJSON through the Scanner,
// the decoder POST /v2/load/stream runs, and so under its grammar and
// rules: a two-coordinate point [x,y] reads as t = the point's index (as
// the stream route always read it; this function used to read t = 0), and
// a record with no points, or a point with more than three coordinates, is
// an error rather than a short trajectory.
func ReadNDJSON(r io.Reader) ([]Trajectory, error) {
	sc := NewScanner(r, math.MaxInt)
	var out []Trajectory
	for {
		t, err := sc.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("traj: decoding NDJSON record %d: %w", len(out)+1, err)
		}
		out = append(out, t)
	}
}
