package traj

import "io"

// NewScannerSize exposes the initial buffer size to the external tests.
var NewScannerSize = newScanner

// ParseNumber reads lit, which must be one whole number literal, the way a
// Scanner reads a coordinate in the stream grammar. fast reports whether the
// exact paths settled it, without strconv.ParseFloat.
func ParseNumber(lit []byte) (v float64, fast bool, err error) {
	if len(lit) == 0 {
		return 0, false, io.ErrUnexpectedEOF
	}
	s := Scanner{buf: lit[:len(lit):len(lit)], rerr: io.EOF}
	if err = s.number(); err == nil && s.pos < len(lit) {
		err = s.syntax("invalid character %q after a number", lit[s.pos])
	}
	if err != nil {
		return 0, false, err
	}
	if fast = !s.slow; fast {
		_, fast = decimalFloat(s.man, s.exp10, s.neg)
	}
	v, err = s.float()
	return v, fast, err
}

// AppendFloatFast reports whether AppendFloat writes f without strconv.
func AppendFloatFast(f float64) bool {
	_, _, ok := shortestDecimal(f)
	return ok
}
