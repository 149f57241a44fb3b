// eiselLemire below is adapted from Go's src/strconv/eisel_lemire.go, which
// carries this notice:
//
// Copyright 2020 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.
//
// (the LICENSE file of the Go distribution).

package traj

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
)

// The Scanner's number conversion. Scanner.number accumulates a literal's
// leading digits into a uint64 mantissa and its decimal exponent (the
// fraction's digits and the e/E part) while it walks it; decimalFloat turns
// man·10^exp10 into the correctly rounded float64 by one of two exact paths,
// and Scanner.float hands whatever neither settles to strconv.ParseFloat:
//
//   - Clinger's: a mantissa below 2^53 and a power of ten up to 10^22 are
//     both exact float64s, so one IEEE multiplication or division rounds
//     their product or quotient correctly;
//   - Eisel–Lemire (Lemire, "Number Parsing at a Gigabyte per Second", SPE
//     2021; what strconv runs internally): the normalized mantissa times a
//     128-bit truncation of 10^exp10. The truncation errs below the true
//     product by less than the mantissa, so whenever the bits below the 54
//     kept cannot be carried into by that error, and the result is not an
//     exact tie, the kept bits round as the exact product's would; any other
//     case is reported as a miss.
//
// ParseFloat keeps literals with more digits than a uint64 holds, exponents
// too large to track, every Eisel–Lemire miss, subnormal results and
// overflow, so every value and every error is the one ParseFloat gives.

// maxMan is the largest mantissa a digit can be appended to in a uint64.
const maxMan = (math.MaxUint64 - 9) / 10

// exactPow10 holds the powers of ten a float64 represents exactly.
var exactPow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// decimalFloat returns the float64 nearest man·10^exp10, negated when neg,
// and whether one of the exact paths could tell it.
func decimalFloat(man uint64, exp10 int, neg bool) (float64, bool) {
	if man < 1<<53 && -22 <= exp10 && exp10 <= 22 {
		f := float64(man)
		if exp10 >= 0 {
			f *= exactPow10[exp10]
		} else {
			f /= exactPow10[-exp10]
		}
		if neg {
			f = -f
		}
		return f, true
	}
	return eiselLemire(man, exp10, neg)
}

// The range of exponents pow10Table covers: below it every mantissa a uint64
// holds gives zero or a subnormal, above it infinity.
const (
	minPow10 = -348
	maxPow10 = 347
)

// pow10Table[e-minPow10] is {hi, lo}: the 128 leading bits of 10^e, top bit
// set, truncated. The binary exponent that goes with it is implied by
// 217706·e>>16, which is floor(e·log2(10)) over the table's range.
var pow10Table = func() (t [maxPow10 - minPow10 + 1][2]uint64) {
	ten, one := big.NewInt(10), big.NewInt(1)
	var p, m big.Int
	var b [16]byte
	for e := minPow10; e <= maxPow10; e++ {
		p.Exp(ten, big.NewInt(int64(max(e, -e))), nil)
		if e >= 0 {
			m.Set(&p)
		} else {
			// floor(2^k / 10^-e) with k so large the quotient has more than
			// 128 bits: truncating it below is truncating 10^e itself
			m.Quo(m.Lsh(one, uint(p.BitLen()+128)), &p)
		}
		if n := m.BitLen(); n > 128 {
			m.Rsh(&m, uint(n-128))
		} else {
			m.Lsh(&m, uint(128-n))
		}
		m.FillBytes(b[:])
		t[e-minPow10] = [2]uint64{binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:])}
	}
	return t
}()

// eiselLemire returns the float64 nearest man·10^exp10, negated when neg,
// or false when the 128-bit product cannot decide it or the result is
// subnormal or infinite.
func eiselLemire(man uint64, exp10 int, neg bool) (float64, bool) {
	if man == 0 {
		if neg {
			return math.Copysign(0, -1), true
		}
		return 0, true
	}
	if exp10 < minPow10 || exp10 > maxPow10 {
		return 0, false
	}
	pow := &pow10Table[exp10-minPow10]
	// normalize the mantissa: top bit set
	lz := bits.LeadingZeros64(man)
	man <<= uint(lz)
	exp2 := uint64(217706*exp10>>16+64+1023) - uint64(lz) // biased, for a 128-bit product with its top bit set

	// The high word of man·hi. Its low 9 bits are dropped below the 54 kept;
	// only when they are all ones can the missing low part carry into the
	// kept ones, and then man·lo is added to find out.
	xhi, xlo := bits.Mul64(man, pow[0])
	if xhi&0x1ff == 0x1ff && xlo+man < man {
		yhi, ylo := bits.Mul64(man, pow[1])
		mhi, mlo := xhi, xlo+yhi
		if mlo < xlo {
			mhi++
		}
		if mhi&0x1ff == 0x1ff && mlo+1 == 0 && ylo+man < man {
			return 0, false // the 10^exp10 the table truncated could still carry
		}
		xhi, xlo = mhi, mlo
	}

	// keep 54 bits: the 53 of the result and one to round on
	top := xhi >> 63
	mant := xhi >> (top + 9)
	exp2 -= 1 ^ top
	if xlo == 0 && xhi&0x1ff == 0 && mant&3 == 1 {
		return 0, false // maybe a tie to round down to even, maybe just above one
	}
	mant += mant & 1 // round half up: the tie that rounds down is excluded above
	mant >>= 1
	if mant>>53 > 0 {
		mant >>= 1
		exp2++
	}
	if exp2-1 >= 0x7ff-1 {
		return 0, false // subnormal or zero (exp2 ≤ 0, wrapped) or infinite
	}
	fb := exp2<<52 | mant&(1<<52-1)
	if neg {
		fb |= 1 << 63
	}
	return math.Float64frombits(fb), true
}
