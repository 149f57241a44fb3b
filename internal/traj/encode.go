package traj

import (
	"fmt"
	"math"
	"strconv"
)

// The one encoder of trajectory JSON, the mirror of Scanner: it appends
// straight from coordinates with no reflection, and what it writes is byte
// for byte what encoding/json writes for the same values. Its users are
// api.Trajectory's MarshalJSON, WriteNDJSON and the client's POST /v2/load
// body. A NaN or ±Inf coordinate, which JSON cannot express, is an error
// wrapping ErrNonFiniteCoordinate, as it is one for encoding/json.

// AppendPoints appends pts to dst as encoding/json writes a [][]float64:
// null for a nil list or a nil point, [] for an empty one. On error it
// returns dst as it was.
func AppendPoints(dst []byte, pts [][]float64) ([]byte, error) {
	if err := CheckPoints(pts); err != nil {
		return dst, err
	}
	if pts == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '[')
	for i, p := range pts {
		if i > 0 {
			dst = append(dst, ',')
		}
		if p == nil {
			dst = append(dst, "null"...)
			continue
		}
		dst = append(dst, '[')
		for j, v := range p {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = AppendFloat(dst, v)
		}
		dst = append(dst, ']')
	}
	return append(dst, ']'), nil
}

// CheckPoints returns the error AppendPoints would return for pts, without
// encoding them: the first non-finite coordinate.
func CheckPoints(pts [][]float64) error {
	for i, p := range pts {
		for _, v := range p {
			if !isFinite(v) {
				return nonFinite(i, v)
			}
		}
	}
	return nil
}

// appendRecord appends t as one WriteNDJSON line,
// {"id":..,"points":[[x,y,t],..]} and a newline.
func appendRecord(dst []byte, t Trajectory) ([]byte, error) {
	for i, p := range t.Points {
		for _, v := range [...]float64{p.X, p.Y, p.T} {
			if !isFinite(v) {
				return dst, nonFinite(i, v)
			}
		}
	}
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendInt(dst, int64(t.ID), 10)
	dst = append(dst, `,"points":[`...)
	for i, p := range t.Points {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '[')
		dst = AppendFloat(dst, p.X)
		dst = append(dst, ',')
		dst = AppendFloat(dst, p.Y)
		dst = append(dst, ',')
		dst = AppendFloat(dst, p.T)
		dst = append(dst, ']')
	}
	return append(dst, "]}\n"...), nil
}

func nonFinite(point int, v float64) error {
	return fmt.Errorf("point %d: %w %s", point, ErrNonFiniteCoordinate, strconv.FormatFloat(v, 'g', -1, 64))
}

// AppendFloat appends the finite f as encoding/json writes a float64: the
// shortest representation that reads back to f, in exponent form below
// 1e-6 and from 1e21 on (ES6 number to string), with the exponent's
// leading zero dropped. It is the one float rule of every hand-written JSON
// encoder (AppendPoints, WriteNDJSON and api's query-response codec); the
// caller refuses a NaN or ±Inf, which JSON cannot express.
func AppendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		if n := len(dst); dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}
