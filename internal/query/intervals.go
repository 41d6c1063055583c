package query

import (
	"math"
	"strconv"
)

// CompareInterval converts a single comparison to the interval of values
// satisfying it. NE is not representable as one interval and returns
// ok == false.
func CompareInterval(c *Compare) (Interval, bool) {
	inf := math.Inf(1)
	switch c.Op {
	case LT:
		return Interval{Lo: -inf, Hi: c.Value, HiOpen: true}, true
	case LE:
		return Interval{Lo: -inf, Hi: c.Value}, true
	case GT:
		return Interval{Lo: c.Value, Hi: inf, LoOpen: true}, true
	case GE:
		return Interval{Lo: c.Value, Hi: inf}, true
	case EQ:
		return Interval{Lo: c.Value, Hi: c.Value}, true
	default:
		return Interval{}, false
	}
}

// Intersect returns the intersection of two intervals.
func Intersect(a, b Interval) Interval {
	out := a
	if b.Lo > out.Lo || (b.Lo == out.Lo && b.LoOpen) {
		out.Lo, out.LoOpen = b.Lo, b.LoOpen
	}
	if b.Hi < out.Hi || (b.Hi == out.Hi && b.HiOpen) {
		out.Hi, out.HiOpen = b.Hi, b.HiOpen
	}
	return out
}

// Empty reports whether the interval contains no values.
func (iv Interval) Empty() bool {
	if iv.Lo > iv.Hi {
		return true
	}
	if iv.Lo == iv.Hi && (iv.LoOpen || iv.HiOpen) {
		return true
	}
	return false
}

// RangeSet extracts, for a pure conjunction of comparisons (the common
// form built from parallel-coordinates axis sliders), the intersected
// interval per variable. It returns ok == false when the expression
// contains OR, NOT, IN or NE terms and therefore is not a plain
// multivariate range query. This is the "set of Boolean range queries"
// that VisIt-style contracts carry out-of-band (paper Section II-D).
func RangeSet(e Expr) (map[string]Interval, bool) {
	out := map[string]Interval{}
	ok := collectRanges(e, out)
	return out, ok
}

func collectRanges(e Expr, out map[string]Interval) bool {
	switch t := e.(type) {
	case *Compare:
		iv, ok := CompareInterval(t)
		if !ok {
			return false
		}
		if prev, exists := out[t.Var]; exists {
			out[t.Var] = Intersect(prev, iv)
		} else {
			out[t.Var] = iv
		}
		return true
	case *And:
		for _, term := range t.Terms {
			if !collectRanges(term, out) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// RoundToPrecision rounds v to p significant decimal digits, the grid on
// which precision-binned index boundaries live.
func RoundToPrecision(v float64, p int) float64 {
	if v == 0 || math.IsInf(v, 0) || math.IsNaN(v) {
		return v
	}
	if p < 1 {
		p = 1
	}
	s := strconv.FormatFloat(v, 'e', p-1, 64)
	out, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return v
	}
	return out
}
