package trace

import (
	"math"
	"math/bits"
	"strconv"
	"strings"
)

// NearestRank returns the 1-based rank of the q-quantile over n ordered
// observations under the nearest-rank definition: ceil(q*n), clamped to
// [1, n], computed in exact integer arithmetic.
//
// The float expression ceil(q*float64(n)) drifts at exactly the ranks
// people pin SLOs to. Two rounding steps conspire: the decimal the
// caller wrote (0.9, 0.05, 0.01, ...) is usually not representable, and
// the product q*n is rounded again before the ceiling. Whenever the
// decimal product is an integer k but the evaluated product lands on
// the far side of k, the reported rank is off by one — e.g. the double
// nearest 0.01 is above 1/100, so a p1 over 100 samples ceils to rank 2,
// and tail quantiles inflate toward the maximum the same way.
//
// Exactness here means exact with respect to q's shortest decimal
// representation — the literal the caller wrote — not the binary
// double's exact rational value. (Being exact about the double would
// bake its representation error into the rank: double(0.9)*10 is
// fractionally above 9, so a faithful ceiling returns rank 10, the
// maximum, where the 90th percentile of 10 samples is rank 9.) The
// shortest decimal of q is m * 10^-p with m < 10^17, so
//
//	ceil(q*n) = ceil(n*m / 10^p) = n*m/10^p + (1 if remainder else 0)
//
// computed on the 128-bit product n*m via bits.Mul64/Div64.
func NearestRank(n int64, q float64) int64 {
	if n <= 0 {
		return 0
	}
	if q <= 0 || math.IsNaN(q) {
		return 1
	}
	if q >= 1 {
		return n
	}
	m, p := decimalParts(q)
	// q < 1 means m < 10^p, so the quotient below is < n < 2^63 and every
	// intermediate fits the limbs bits.Div64 requires.
	hi, lo := bits.Mul64(uint64(n), m)
	var rank, rem uint64
	switch {
	case p > 36:
		// n*m < 2^63 * 10^17 < 10^36 < 10^p: the quotient is 0 with a
		// nonzero remainder, so the ceiling is 1.
		return 1
	case p > 18:
		// Divide by 10^18 then 10^(p-18), folding both remainders into
		// the ceiling test.
		q1, r1 := bits.Div64(hi, lo, pow10(18))
		rank = q1 / pow10(p-18)
		rem = q1%pow10(p-18) | r1
	default:
		rank, rem = bits.Div64(hi, lo, pow10(p))
	}
	if rem != 0 {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > uint64(n) {
		rank = uint64(n)
	}
	return int64(rank)
}

// Percentile returns the nearest-rank q-quantile of sorted samples,
// sorted[NearestRank(len(sorted), q)-1], or the zero value for none.
// Every percentile the project reports (scheduler and serving
// turnarounds, QoS waiting times) goes through it.
func Percentile[T any](sorted []T, q float64) T {
	if len(sorted) == 0 {
		var zero T
		return zero
	}
	return sorted[NearestRank(int64(len(sorted)), q)-1]
}

// pow10 returns 10^p for 0 <= p <= 18 (the uint64 range).
func pow10(p int) uint64 {
	v := uint64(1)
	for i := 0; i < p; i++ {
		v *= 10
	}
	return v
}

// decimalParts decomposes q in (0, 1) into its shortest decimal
// representation m * 10^-p with m an integer of at most 17 digits and
// p >= 1 (for q < 2^-120 it saturates at p = 37, which NearestRank
// treats as "smaller than any rank resolves").
func decimalParts(q float64) (uint64, int) {
	s := strconv.FormatFloat(q, 'e', -1, 64) // "d.ddddde-xx"
	mantStr, expStr, _ := strings.Cut(s, "e")
	exp, err := strconv.Atoi(expStr)
	if err != nil {
		return 1, 37
	}
	intPart, fracPart, _ := strings.Cut(mantStr, ".")
	digits := intPart + fracPart
	m, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		return 1, 37
	}
	// q = digits * 10^(exp - len(fracPart)); exp <= -1 for q < 1.
	p := len(fracPart) - exp
	if p > 37 {
		p = 37
	}
	return m, p
}
