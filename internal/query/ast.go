// Package query implements the compound Boolean range query language used
// to drive data selection, e.g.
//
//	px > 1e9 && py < 1e8 && y > 0
//	id in (17, 99, 2048)
//	!(x < 0.5) || px >= 2.5e8
//
// Queries of this form are composed interactively from the parallel
// coordinates display (paper Section III-B) and passed out-of-band to the
// I/O layer, where they are evaluated against bitmap indices or by a
// sequential scan.
package query

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Op is a comparison operator.
type Op int

// Comparison operators supported in range conditions.
const (
	LT Op = iota // <
	LE           // <=
	GT           // >
	GE           // >=
	EQ           // ==
	NE           // !=
)

func (o Op) String() string {
	switch o {
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	case EQ:
		return "=="
	case NE:
		return "!="
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Flip returns the operator that preserves meaning when the operands of a
// comparison are swapped (e.g. `5 < x` becomes `x > 5`).
func (o Op) Flip() Op {
	switch o {
	case LT:
		return GT
	case LE:
		return GE
	case GT:
		return LT
	case GE:
		return LE
	default:
		return o
	}
}

// Expr is a parsed query expression.
type Expr interface {
	fmt.Stringer
	// Eval evaluates the expression for one record; get returns the value
	// of a named variable for that record.
	Eval(get func(name string) float64) bool
	// walk visits the expression tree.
	walk(fn func(Expr))
}

// Compare is a single range condition `var op value`.
type Compare struct {
	Var   string
	Op    Op
	Value float64
}

// Eval implements Expr.
func (c *Compare) Eval(get func(string) float64) bool {
	v := get(c.Var)
	switch c.Op {
	case LT:
		return v < c.Value
	case LE:
		return v <= c.Value
	case GT:
		return v > c.Value
	case GE:
		return v >= c.Value
	case EQ:
		return v == c.Value
	case NE:
		return v != c.Value
	default:
		return false
	}
}

func (c *Compare) String() string {
	return fmt.Sprintf("%s %s %s", c.Var, c.Op, formatNumber(c.Value))
}

func (c *Compare) walk(fn func(Expr)) { fn(c) }

// In is a membership condition `var in (v1, v2, …)`, used for particle
// identifier queries. Values are kept sorted.
type In struct {
	Var    string
	Values []float64
}

// NewIn builds a sorted, deduplicated In condition.
func NewIn(name string, values []float64) *In {
	vs := append([]float64(nil), values...)
	sort.Float64s(vs)
	out := vs[:0]
	for i, v := range vs {
		if i == 0 || v != vs[i-1] {
			out = append(out, v)
		}
	}
	return &In{Var: name, Values: out}
}

// Contains reports membership by binary search.
func (in *In) Contains(v float64) bool {
	i := sort.SearchFloat64s(in.Values, v)
	return i < len(in.Values) && in.Values[i] == v
}

// Eval implements Expr.
func (in *In) Eval(get func(string) float64) bool { return in.Contains(get(in.Var)) }

func (in *In) String() string {
	parts := make([]string, len(in.Values))
	for i, v := range in.Values {
		parts[i] = formatNumber(v)
	}
	return fmt.Sprintf("%s in (%s)", in.Var, strings.Join(parts, ", "))
}

func (in *In) walk(fn func(Expr)) { fn(in) }

// And is the conjunction of two or more subexpressions.
type And struct{ Terms []Expr }

// Eval implements Expr.
func (a *And) Eval(get func(string) float64) bool {
	for _, t := range a.Terms {
		if !t.Eval(get) {
			return false
		}
	}
	return true
}

func (a *And) String() string { return joinTerms(a.Terms, " && ") }

func (a *And) walk(fn func(Expr)) {
	fn(a)
	for _, t := range a.Terms {
		t.walk(fn)
	}
}

// Or is the disjunction of two or more subexpressions.
type Or struct{ Terms []Expr }

// Eval implements Expr.
func (o *Or) Eval(get func(string) float64) bool {
	for _, t := range o.Terms {
		if t.Eval(get) {
			return true
		}
	}
	return false
}

func (o *Or) String() string { return joinTerms(o.Terms, " || ") }

func (o *Or) walk(fn func(Expr)) {
	fn(o)
	for _, t := range o.Terms {
		t.walk(fn)
	}
}

// Not negates a subexpression.
type Not struct{ Term Expr }

// Eval implements Expr.
func (n *Not) Eval(get func(string) float64) bool { return !n.Term.Eval(get) }

func (n *Not) String() string { return "!(" + n.Term.String() + ")" }

func (n *Not) walk(fn func(Expr)) {
	fn(n)
	n.Term.walk(fn)
}

// Bind compiles e against its columns once, for evaluating it row after
// row: the returned predicate reports e.Eval for the record whose values
// are cols[v][row]. Its semantics are Eval's exactly — the same float
// comparisons (NaN fails all but !=, −0 equals 0), IN through Contains,
// and a variable missing from cols reads as 0 — without Eval's closure
// and map lookup per variable per row. Every referenced column must hold
// more than row values.
func Bind(e Expr, cols map[string][]float64) func(row int) bool {
	switch x := e.(type) {
	case *Compare:
		col, ok := cols[x.Var]
		if !ok {
			c := x.Eval(func(string) float64 { return 0 })
			return func(int) bool { return c }
		}
		v := x.Value
		switch x.Op {
		case LT:
			return func(r int) bool { return col[r] < v }
		case LE:
			return func(r int) bool { return col[r] <= v }
		case GT:
			return func(r int) bool { return col[r] > v }
		case GE:
			return func(r int) bool { return col[r] >= v }
		case EQ:
			return func(r int) bool { return col[r] == v }
		case NE:
			return func(r int) bool { return col[r] != v }
		default:
			return func(int) bool { return false }
		}
	case *In:
		col, ok := cols[x.Var]
		if !ok {
			c := x.Contains(0)
			return func(int) bool { return c }
		}
		return func(r int) bool { return x.Contains(col[r]) }
	case *And:
		fs := bindTerms(x.Terms, cols)
		if len(fs) == 2 {
			a, b := fs[0], fs[1]
			return func(r int) bool { return a(r) && b(r) }
		}
		return func(r int) bool {
			for _, f := range fs {
				if !f(r) {
					return false
				}
			}
			return true
		}
	case *Or:
		fs := bindTerms(x.Terms, cols)
		if len(fs) == 2 {
			a, b := fs[0], fs[1]
			return func(r int) bool { return a(r) || b(r) }
		}
		return func(r int) bool {
			for _, f := range fs {
				if f(r) {
					return true
				}
			}
			return false
		}
	case *Not:
		f := Bind(x.Term, cols)
		return func(r int) bool { return !f(r) }
	default:
		panic(fmt.Sprintf("query: Bind of unknown expression %T", e))
	}
}

func bindTerms(terms []Expr, cols map[string][]float64) []func(int) bool {
	fs := make([]func(int) bool, len(terms))
	for i, t := range terms {
		fs[i] = Bind(t, cols)
	}
	return fs
}

func joinTerms(terms []Expr, sep string) string {
	parts := make([]string, len(terms))
	for i, t := range terms {
		switch t.(type) {
		case *And, *Or:
			parts[i] = "(" + t.String() + ")"
		default:
			parts[i] = t.String()
		}
	}
	return strings.Join(parts, sep)
}

// Vars returns the sorted set of variable names referenced by e.
func Vars(e Expr) []string {
	seen := map[string]bool{}
	e.walk(func(x Expr) {
		switch c := x.(type) {
		case *Compare:
			seen[c.Var] = true
		case *In:
			seen[c.Var] = true
		}
	})
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

func formatNumber(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Interval is a half-open-ish numeric interval with optional open bounds.
type Interval struct {
	Lo, Hi         float64 // bounds; ±Inf when unbounded
	LoOpen, HiOpen bool    // true when the bound itself is excluded
}

func (iv Interval) String() string {
	lb, rb := "[", "]"
	if iv.LoOpen {
		lb = "("
	}
	if iv.HiOpen {
		rb = ")"
	}
	return fmt.Sprintf("%s%g, %g%s", lb, iv.Lo, iv.Hi, rb)
}

// Contains reports whether v lies in the interval.
func (iv Interval) Contains(v float64) bool {
	if v < iv.Lo || (iv.LoOpen && v == iv.Lo) {
		return false
	}
	if v > iv.Hi || (iv.HiOpen && v == iv.Hi) {
		return false
	}
	return true
}
