package traj

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"

	"simsub/internal/geo"
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
	if err := checkFinite(t.Points); err != nil {
		return dst, err
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

// checkFinite returns the error for the first NaN or ±Inf coordinate of
// pts, which neither JSON nor ReadCSV accepts.
func checkFinite(pts []geo.Point) error {
	for i, p := range pts {
		for _, v := range [...]float64{p.X, p.Y, p.T} {
			if !isFinite(v) {
				return nonFinite(i, v)
			}
		}
	}
	return nil
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
//
// The digits are shortestDecimal's; a subnormal, which it leaves alone, is
// strconv's, whose exponent has three digits there and so needs no trimming.
func AppendFloat(dst []byte, f float64) []byte {
	d, exp, ok := shortestDecimal(f)
	if !ok {
		return strconv.AppendFloat(dst, f, 'e', -1, 64)
	}
	// The digits go to the end of buf, and the fixed layout's point, leading
	// "0." and zeros and sign are put around them there, so that one append
	// copies the number out.
	var buf [32]byte
	i := putDigits(&buf, d)
	n := len(buf) - i
	for ; n > 1 && buf[i+n-1] == '0'; n-- {
		exp++
	}
	end := i + n
	dp := n + exp // |f| = 0.digits × 10^dp
	var zeros int // to append after the digits
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		return appendExp(dst, math.Signbit(f), buf[i:end], dp-1)
	}
	switch {
	case dp <= 0: // from 1e-6 on, at most five zeros after the point
		for ; dp < 0; dp++ {
			i--
			buf[i] = '0'
		}
		i -= 2
		buf[i], buf[i+1] = '0', '.'
	case dp < n:
		copy(buf[i-1:], buf[i:i+dp])
		i--
		buf[i+dp] = '.'
	default:
		zeros = dp - n
	}
	if math.Signbit(f) {
		i--
		buf[i] = '-'
	}
	dst = append(dst, buf[i:end]...)
	for ; zeros > 0; zeros-- {
		dst = append(dst, '0')
	}
	return dst
}

// appendExp appends ±d[.ddd]e±x, the sign when neg, x without leading
// zeros.
func appendExp(dst []byte, neg bool, digits []byte, x int) []byte {
	if neg {
		dst = append(dst, '-')
	}
	dst = append(dst, digits[0])
	if len(digits) > 1 {
		dst = append(dst, '.')
		dst = append(dst, digits[1:]...)
	}
	if x < 0 {
		dst = append(dst, 'e', '-')
		x = -x
	} else {
		dst = append(dst, 'e', '+')
	}
	var buf [32]byte
	i := putDigits(&buf, uint64(x))
	return append(dst, buf[i:]...)
}

// digitPairs[2i:2i+2] is i in two decimal digits, for i below 100.
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// putDigits writes d's decimal digits at the end of buf and returns where
// they start. Eight-digit chunks, each split in halves and those in pairs,
// keep the divisions short and mostly independent of each other.
func putDigits(buf *[32]byte, d uint64) int {
	i := len(buf)
	for d >= 1e8 {
		q := d / 1e8
		r := uint32(d - q*1e8)
		d = q
		i -= 8
		b := buf[i : i+8 : i+8]
		hi, lo := r/10000, r%10000
		b[0], b[1] = digitPairs[2*(hi/100)], digitPairs[2*(hi/100)+1]
		b[2], b[3] = digitPairs[2*(hi%100)], digitPairs[2*(hi%100)+1]
		b[4], b[5] = digitPairs[2*(lo/100)], digitPairs[2*(lo/100)+1]
		b[6], b[7] = digitPairs[2*(lo%100)], digitPairs[2*(lo%100)+1]
	}
	x := uint32(d)
	for x >= 100 {
		r := x % 100
		x /= 100
		i -= 2
		buf[i], buf[i+1] = digitPairs[2*r], digitPairs[2*r+1]
	}
	if x >= 10 {
		i -= 2
		buf[i], buf[i+1] = digitPairs[2*x], digitPairs[2*x+1]
	} else {
		i--
		buf[i] = byte('0' + x)
	}
	return i
}

// shortestDecimal returns the shortest decimal d·10^exp that reads back to
// |f|, the one nearest f when several are that short (ties to an even d); d
// may end in zeros. An integer below 2^53 is its own shortest decimal and
// comes back as it is. Subnormals are left alone (ok false): Schubfach's
// rule there is not strconv's.
func shortestDecimal(f float64) (d uint64, exp int, ok bool) {
	b := math.Float64bits(f)
	be := int(b>>52) & 0x7ff
	t := b & (1<<52 - 1)
	if be == 0 {
		return 0, 0, t == 0
	}
	c := 1<<52 | t
	q := be - 1075 // |f| = c·2^q
	if -52 <= q && q <= 0 && c&(1<<uint(-q)-1) == 0 {
		return c >> uint(-q), 0, true
	}
	d, exp = schubfach(c, q)
	return d, exp, true
}

// schubfach returns the shortest decimal d·10^k inside the interval of reals
// that round to the normal double c·2^q, nearest it among the shortest (R.
// Giulietti, "The Schubfach way to render doubles", 2020). Every candidate
// is tested on a scaled copy of the interval, 4·(c·2^q ± half an ulp)/10^k
// with k = ⌊log10 2^q⌋ (⌊log10 ¾·2^q⌋ when the interval is lopsided), so
// that s = ⌊c·2^q/10^k⌋ has 16 or 17 digits. The ends and the value are
// computed to two fraction bits and a sticky bit (roundToOdd); the paper
// shows that decides every test exactly. Its 126-bit g = ⌊10^-k·2^(125-⌊log2 10^-k⌋)⌋ + 1 is pow10Table's
// 128 truncated bits of 10^-k shifted down by two, plus one.
func schubfach(c uint64, q int) (uint64, int) {
	out := c & 1 // an odd c leaves out the interval's ends: they round to its even neighbours
	cb := c << 2
	cbr := cb + 2
	var cbl uint64
	var k int
	if c != 1<<52 || q == -1074 {
		cbl = cb - 2
		k = int(int64(q) * 661971961083 >> 41) // ⌊log10 2^q⌋
	} else {
		// the next double down is half as far away as the next one up
		cbl = cb - 1
		k = int((int64(q)*661971961083 - 274743187321) >> 41) // ⌊log10 ¾·2^q⌋
	}
	h := q + 217706*-k>>16 + 3 // the shift that scales 4c·2^q·10^-k to g·(4c<<h)/2^128, 3 to 6
	pow := &pow10Table[-k-minPow10]
	ghi, glo := pow[0]>>2, (pow[0]<<62|pow[1]>>2)+1
	if glo == 0 {
		ghi++
	}
	vb := roundToOdd(ghi, glo, cb<<h)
	lower := roundToOdd(ghi, glo, cbl<<h) + out
	upper := roundToOdd(ghi, glo, cbr<<h) - out

	// One digit fewer: s' = 10⌊s/10⌋ or s'+10, if exactly one is inside
	// (the paper shows both never are).
	s := vb >> 2
	sp := s / 10 * 10
	if upin, wpin := lower <= sp<<2, (sp+10)<<2 <= upper; upin != wpin {
		if upin {
			return sp, k
		}
		return sp + 10, k
	}
	// Full length: s or s+1, the nearer one if both are inside.
	if uin, win := lower <= s<<2, (s+1)<<2 <= upper; uin != win {
		if uin {
			return s, k
		}
		return s + 1, k
	}
	if mid := s<<2 + 2; vb > mid || vb == mid && s&1 == 1 {
		return s + 1, k
	}
	return s, k
}

// roundToOdd returns ⌊g·cp/2^128⌋ for g = ghi·2^64 + glo, with its low bit
// set when the product has a fraction. g exceeds the true scale by less
// than one, so a remainder below 2/2^64 is that excess, not a fraction.
func roundToOdd(ghi, glo, cp uint64) uint64 {
	xhi, _ := bits.Mul64(glo, cp)
	yhi, ylo := bits.Mul64(ghi, cp)
	z, carry := bits.Add64(ylo, xhi, 0)
	yhi += carry
	if z > 1 {
		yhi |= 1
	}
	return yhi
}
