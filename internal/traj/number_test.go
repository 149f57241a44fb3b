package traj_test

import (
	"bytes"
	"errors"
	"math"
	"regexp"
	"strconv"
	"testing"

	"simsub/internal/dataset"
	"simsub/internal/traj"
)

// numberSeeds are the literals at the edges of the scanner's number
// conversion: signed zeros, subnormals and the smallest normal, Clinger's
// limits (2^53, 10^±22), mantissas of 19 and 20 digits around the uint64
// limit, and exponents at and beyond Eisel–Lemire's table and float64's
// range.
var numberSeeds = []string{
	"0", "-0", "0e5", "-0.0e-400", "1E5", "0.1", "-8.610000", "41.1496845", "1372636858.000000",
	"5e-324", "4.9406564584124654e-324", "2.2250738585072011e-308", "2.2250738585072014e-308",
	"1e23", "8.589973e9", "9007199254740992", "9007199254740993", "9007199254740993e-22",
	"1234567890123456789", "9999999999999999999", "1844674407370955161.9",
	"18446744073709551615", "18446744073709551616", "12345678901234567890", "0.12345678901234567890",
	"1e22", "1e-22", "4.5e22", "1e-23", "7e23", "1e308", "1e-308", "1.7976931348623157e308",
	"1.7976931348623158e308", "1.7976931348623159e308", "-1e308", "1e348", "1e-348", "1e347",
	"1e-347", "1e400", "1e-400", "1e0000000000000000000001", "1e99999999999", "0.0000000000000000000000000001",
}

// jsonNumber is JSON's number grammar.
var jsonNumber = regexp.MustCompile(`^-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)

// FuzzParseNumber holds the scanner's number conversion to
// strconv.ParseFloat bit for bit: every literal of JSON's grammar gets
// ParseFloat's value, and an overflow error exactly where ParseFloat returns
// ErrRange; anything else is a syntax error.
func FuzzParseNumber(f *testing.F) {
	for _, seed := range numberSeeds {
		f.Add(seed)
	}
	for _, seed := range []string{"", "-", "01", "1.", ".5", "+1", "1e", "1e+", "0x10", "1 ", "Infinity", "NaN"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, lit string) {
		got, fast, err := traj.ParseNumber([]byte(lit))
		var se *traj.SyntaxError
		overflow := errors.As(err, &se) && se.Msg == "coordinate "+lit+" does not fit a float64"
		if !jsonNumber.MatchString(lit) {
			if err == nil || overflow {
				t.Fatalf("%q is not a JSON number; read %v, %v", lit, got, err)
			}
			return
		}
		want, werr := strconv.ParseFloat(lit, 64)
		switch {
		case werr != nil:
			// JSON's grammar leaves ParseFloat one way to fail
			if !errors.Is(werr, strconv.ErrRange) || !overflow || se.Offset != 0 || fast {
				t.Fatalf("%q: read %v, %v (fast %v); ParseFloat %v", lit, got, err, fast, werr)
			}
		case err != nil:
			t.Fatalf("%q: %v; ParseFloat read %v", lit, err, want)
		case math.Float64bits(got) != math.Float64bits(want):
			t.Fatalf("%q: read %v (%#x, fast %v); ParseFloat %v (%#x)", lit, got, math.Float64bits(got), fast, want, math.Float64bits(want))
		}
	})
}

// TestNumberFastPath holds every number literal the encoder writes for
// Porto records to the exact paths, without strconv.ParseFloat: shortest
// form, as traj.AppendPoints writes it, and 6 decimals, as real GPS dumps
// do.
func TestNumberFastPath(t *testing.T) {
	var shortest, fixed []byte
	for _, tr := range dataset.Generate(dataset.Config{Kind: dataset.Porto, N: 200, Seed: 1}) {
		pts := make([][]float64, len(tr.Points))
		for i, p := range tr.Points {
			pts[i] = []float64{p.X, p.Y, p.T}
			for _, v := range pts[i] {
				fixed = strconv.AppendFloat(append(fixed, ','), v, 'f', 6, 64)
			}
		}
		var err error
		if shortest, err = traj.AppendPoints(append(shortest, ','), pts); err != nil {
			t.Fatal(err)
		}
	}
	lits := bytes.FieldsFunc(append(shortest, fixed...), func(r rune) bool { return r == '[' || r == ']' || r == ',' })
	for _, lit := range lits {
		v, fast, err := traj.ParseNumber(lit)
		want, _ := strconv.ParseFloat(string(lit), 64)
		if err != nil || !fast || math.Float64bits(v) != math.Float64bits(want) {
			t.Fatalf("%s: read %v (fast %v, err %v), want %v on the fast path", lit, v, fast, err, want)
		}
	}
	if len(lits) < 20000 {
		t.Fatalf("only %d literals", len(lits))
	}
}
