package fastbit

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/bitmap"
	"repro/internal/colstore"
	"repro/internal/query"
	"repro/internal/scan"
)

// conjBytes hands out the fuzz input a byte at a time, zeros once spent.
type conjBytes struct {
	b []byte
	i int
}

func (c *conjBytes) next() int {
	if c.i >= len(c.b) {
		return 0
	}
	c.i++
	return int(c.b[c.i-1])
}

// conjValue is a column value or query constant: one of levels steps of
// 0.5 around zero, so values tie, bins hold several, and a constant on a
// step cuts the bin holding it.
func conjValue(k, levels int) float64 { return float64(k%levels)/2 - float64(levels)/4 }

// conjStep writes columns a, b and c of rows rows, each with its own
// number of distinct values, and an id column, to a step file in chunks
// of chunkRows, and indexes them into bins bins. It returns the index,
// the file as a BatchReader, and the columns for the scan oracle.
func conjStep(t *testing.T, in *conjBytes, rows, chunkRows, bins, levels int) (*StepIndex, fileReader, scan.Columns) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(in.next()<<8 | in.next())))
	cols := map[string][]float64{}
	for _, name := range []string{"a", "b", "c"} {
		n := 1 + in.next()%levels
		col := make([]float64, rows)
		for r := range col {
			col[r] = conjValue(rng.Intn(n), levels)
		}
		cols[name] = col
	}
	ids := make([]int64, rows)
	idf := make([]float64, rows)
	for r := range ids {
		ids[r] = int64(3*r + 1)
		idf[r] = float64(ids[r])
	}
	path := filepath.Join(t.TempDir(), "step.col")
	w, err := colstore.NewWriter(path, uint64(rows), chunkRows)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b", "c"} {
		if err := w.AddFloat64(name, cols[name]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.AddInt64("id", ids); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := colstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	si, err := BuildStepIndex(cols, ids, "id", IndexOptions{Bins: bins})
	if err != nil {
		t.Fatal(err)
	}
	sc := scan.Columns{"id": idf}
	for name, col := range cols {
		sc[name] = col
	}
	return si, fileReader{f}, sc
}

// conjQuery draws a conjunction: 1–4 range terms, then maybe an in list
// (on id, the ID index's, or a range-indexed column) and maybe a negated
// comparison, in an order the input picks, canonicalized as a served
// query is.
func conjQuery(in *conjBytes, rows, levels int) query.Expr {
	vars := []string{"a", "b", "c"}
	compare := func(ops int) *query.Compare {
		return &query.Compare{Var: vars[in.next()%len(vars)], Op: query.Op(in.next() % ops), Value: conjValue(in.next(), levels)}
	}
	var terms []query.Expr
	for n := 1 + in.next()%4; n > 0; n-- {
		terms = append(terms, compare(int(query.NE))) // every operator but !=
	}
	if in.next()%2 == 1 {
		name := append(vars, "id")[in.next()%4]
		vs := make([]float64, 1+in.next()%3)
		for i := range vs {
			if name == "id" {
				vs[i] = float64(3*(in.next()%rows) + 1)
			} else {
				vs[i] = conjValue(in.next(), levels)
			}
		}
		terms = append(terms, query.NewIn(name, vs))
	}
	if in.next()%2 == 1 {
		terms = append(terms, &query.Not{Term: compare(int(query.NE) + 1)})
	}
	rand.New(rand.NewSource(int64(in.next()))).Shuffle(len(terms), func(i, j int) { terms[i], terms[j] = terms[j], terms[i] })
	return query.Canonical(&query.And{Terms: terms})
}

// conjTerms returns the terms a conjunction ANDs: e's, or e alone when
// canonicalization left one term.
func conjTerms(e query.Expr) []query.Expr {
	if a, ok := e.(*query.And); ok {
		return a.Terms
	}
	return []query.Expr{e}
}

// termOracle evaluates one term over [lo, hi) on its own: a range term
// through Index.EvaluateCtx, any other through a fresh evaluator. It
// returns the set and the candidate checks it took.
func termOracle(t *testing.T, si *StepIndex, raw RawReader, approx bool, term query.Expr, lo, hi uint64) (*bitmap.BitSet, uint64) {
	t.Helper()
	ctx := context.Background()
	if c, ok := term.(*query.Compare); ok && c.Op != query.NE && !approx {
		iv, _ := query.CompareInterval(c)
		read := func(pos []uint64, fn func([]uint64, []float64) error) error {
			return raw.(BatchReader).VisitAt(c.Var, pos, fn)
		}
		s, st, err := si.Columns[c.Var].EvaluateCtx(ctx, iv, read, lo, hi)
		if err != nil {
			t.Fatalf("%s over [%d, %d): %v", term, lo, hi, err)
		}
		return s, st.CandidateChecks
	}
	ev := si.Evaluator(raw)
	ev.Approx = approx
	s, err := ev.evalWindow(ctx, term, lo, hi)
	if err != nil {
		t.Fatalf("%s over [%d, %d): %v", term, lo, hi, err)
	}
	return s, ev.Stats.CandidateChecks
}

// conjOracle is the AND of every term's own evaluation over [lo, hi) and
// the sum of their candidate checks.
func conjOracle(t *testing.T, si *StepIndex, raw RawReader, approx bool, e query.Expr, lo, hi uint64) (*bitmap.BitSet, uint64) {
	t.Helper()
	var acc *bitmap.BitSet
	var checks uint64
	for _, term := range conjTerms(e) {
		s, c := termOracle(t, si, raw, approx, term, lo, hi)
		checks += c
		if acc == nil {
			acc = s
		} else {
			acc.AndWith(s)
		}
	}
	return acc, checks
}

// conjChecks models the candidate checks of the two passes over
// [lo, hi) from each term's own evaluation: pass 1 ANDs the other terms'
// sets (counting their checks) and each range term's sure ∪ candidate
// rows, stopping once the bound is empty; pass 2 counts each range term's
// candidates still in the bound, in the conjunction's order, and keeps
// in the bound only the rows the term matches.
func conjChecks(t *testing.T, si *StepIndex, raw RawReader, e query.Expr, lo, hi uint64) uint64 {
	t.Helper()
	type pending struct{ cand, match *bitmap.BitSet }
	var (
		u      *bitmap.BitSet
		checks uint64
		ps     []pending
	)
	for _, term := range conjTerms(e) {
		var s *bitmap.BitSet
		if c, ok := term.(*query.Compare); ok && c.Op != query.NE {
			iv, _ := query.CompareInterval(c)
			sure, cand, _, err := si.Columns[c.Var].bounds(iv, lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			if s = sure; cand != nil {
				match, _ := termOracle(t, si, raw, false, term, lo, hi)
				ps = append(ps, pending{cand, match})
				s = sure.Or(cand)
			}
		} else {
			var c uint64
			s, c = termOracle(t, si, raw, false, term, lo, hi)
			checks += c
		}
		if u == nil {
			u = s
		} else {
			u.AndWith(s)
		}
		if !u.Any() {
			return checks
		}
	}
	for _, p := range ps {
		p.cand.AndWith(u)
		checks += p.cand.Count()
		if u.AndWith(p.match); !u.Any() {
			break
		}
	}
	return checks
}

// FuzzConjunction is the oracle for the two-pass conjunction
// (Evaluator.evalAnd) over a step file of random columns, bin count and
// chunk size, and a random row window:
//   - its rows are the AND of each term evaluated alone (a range term by
//     Index.EvaluateCtx), and the scan's selection clipped to the window;
//   - it candidate-checks no more rows than those terms alone do, and
//     exactly the rows a model of its two passes checks (conjChecks);
//   - over a split of the step into windows, the windows' checks sum to
//     the whole step's, unless a window's answer is empty (a conjunction
//     stops once its upper bound empties), and their rows are the whole
//     step's;
//   - with Approx, its rows are the AND of each term's approximate
//     evaluation: pass 1's upper bound, no raw value read.
//
// The seed corpus is testdata/fuzz/FuzzConjunction.
func FuzzConjunction(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &conjBytes{b: data}
		rows := 1 + (in.next()<<8|in.next())%600
		chunkRows := 1 + in.next()%64
		bins := 1 + in.next()%16
		levels := 2 + in.next()%62
		si, raw, cols := conjStep(t, in, rows, chunkRows, bins, levels)
		e := conjQuery(in, rows, levels)
		pick := func() uint64 { return uint64(in.next()<<8|in.next()) % uint64(rows+1) }
		lo, hi := pick(), pick()
		lo, hi = min(lo, hi), max(lo, hi)
		what := fmt.Sprintf("%d rows, chunks of %d, %d bins, %q over [%d, %d)", rows, chunkRows, bins, e, lo, hi)
		ctx := context.Background()

		ev := si.Evaluator(raw)
		got, err := ev.evalWindow(ctx, e, lo, hi)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		want, checks := conjOracle(t, si, raw, false, e, lo, hi)
		if !slices.Equal(got.Positions(lo), want.Positions(lo)) {
			t.Fatalf("%s: selects %v, the AND of its terms %v", what, got.Positions(lo), want.Positions(lo))
		}
		all, err := scan.SelectCtx(ctx, cols, e)
		if err != nil {
			t.Fatal(err)
		}
		var clipped []uint64
		for _, p := range all {
			if p >= lo && p < hi {
				clipped = append(clipped, p)
			}
		}
		if !slices.Equal(got.Positions(lo), clipped) {
			t.Fatalf("%s: selects %v, the scan %v", what, got.Positions(lo), clipped)
		}
		if c := ev.Stats.CandidateChecks; c > checks || c != conjChecks(t, si, raw, e, lo, hi) {
			t.Fatalf("%s: %d candidate checks, its terms alone %d, the model %d", what, c, checks, conjChecks(t, si, raw, e, lo, hi))
		}

		// A split of the whole step into windows at up to four points.
		whole := si.Evaluator(raw)
		wholeSet, err := whole.evalWindow(ctx, e, 0, uint64(rows))
		if err != nil {
			t.Fatalf("%s: whole step: %v", what, err)
		}
		cuts := []uint64{0, uint64(rows)}
		for n := in.next() % 5; n > 0; n-- {
			cuts = append(cuts, pick())
		}
		slices.Sort(cuts)
		var sum uint64
		var rowsSeen []uint64
		emptied := false
		for i := 1; i < len(cuts); i++ {
			w := si.Evaluator(raw)
			s, err := w.evalWindow(ctx, e, cuts[i-1], cuts[i])
			if err != nil {
				t.Fatalf("%s: window [%d, %d): %v", what, cuts[i-1], cuts[i], err)
			}
			sum += w.Stats.CandidateChecks
			emptied = emptied || !s.Any()
			rowsSeen = append(rowsSeen, s.Positions(cuts[i-1])...)
		}
		if !slices.Equal(rowsSeen, wholeSet.Positions(0)) {
			t.Fatalf("%s: windows at %v select %v, the whole step %v", what, cuts, rowsSeen, wholeSet.Positions(0))
		}
		if c := whole.Stats.CandidateChecks; sum > c || sum < c && !emptied {
			t.Fatalf("%s: windows at %v check %d rows, the whole step %d", what, cuts, sum, c)
		}

		approx := si.Evaluator(nil) // index-only: no raw reader
		approx.Approx = true
		bound, err := approx.evalWindow(ctx, e, lo, hi)
		if err != nil {
			t.Fatalf("%s: approx: %v", what, err)
		}
		wantBound, _ := conjOracle(t, si, nil, true, e, lo, hi)
		if !slices.Equal(bound.Positions(lo), wantBound.Positions(lo)) || approx.Stats.CandidateChecks != 0 {
			t.Fatalf("%s: approx selects %v after %d checks, the AND of its terms' %v",
				what, bound.Positions(lo), approx.Stats.CandidateChecks, wantBound.Positions(lo))
		}
	})
}
