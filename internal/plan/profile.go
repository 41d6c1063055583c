package plan

import (
	"context"
	"sort"
	"sync"
	"time"

	"repro/internal/fastquery"
	"repro/internal/obs"
)

// FragProfile is the execution profile of one plan fragment: what it
// cost and how the budget machinery treated it. Shard workers fill one per
// Exec and ship it beside the result (it rides the ExecReply, never the
// FragmentResult, which for a FragSelect is a stored selection other
// fragments share); the local runner fills one in-process. The frontend sums the Cost fields into query totals, and
// the explain identity tests assert the sums are exact.
type FragProfile struct {
	Step  int    `json:"step"`
	Shard int    `json:"shard"`
	Op    string `json:"op"`
	Rows  [2]int `json:"rows"` // row range [lo, hi); [0,0] = whole step

	Cost   obs.CostSnapshot `json:"cost"`
	EvalMS float64          `json:"eval_ms"`           // shard-side evaluation wall time
	WaitMS float64          `json:"wait_ms,omitempty"` // shard-side admission wait

	BudgetMS  int64  `json:"budget_ms,omitempty"` // deadline budget at dispatch (0 = unbudgeted)
	Exhausted bool   `json:"exhausted,omitempty"` // failed because the budget ran out
	Err       string `json:"err,omitempty"`       // failure, including refusals before dispatch
}

// Profile collects per-fragment profiles for one query. It rides the
// request context (WithProfile / ProfileFromContext) so the scatter
// client and the local runner can append from concurrent goroutines; a
// nil *Profile swallows appends, so un-profiled requests pay one nil
// check per fragment.
type Profile struct {
	mu    sync.Mutex
	frags []FragProfile
}

// NewProfile creates an empty profile collector.
func NewProfile() *Profile { return &Profile{} }

// Add appends one fragment profile. Safe on nil.
func (p *Profile) Add(fp FragProfile) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.frags = append(p.frags, fp)
	p.mu.Unlock()
}

// Fragments returns a copy of the collected fragment profiles, sorted by
// (step, shard, rows.lo, op): fragments — and, in a batch, whole steps —
// finish in scheduler order, and an explain must not depend on it.
func (p *Profile) Fragments() []FragProfile {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	out := append([]FragProfile(nil), p.frags...)
	p.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		switch {
		case a.Step != b.Step:
			return a.Step < b.Step
		case a.Shard != b.Shard:
			return a.Shard < b.Shard
		case a.Rows[0] != b.Rows[0]:
			return a.Rows[0] < b.Rows[0]
		default:
			return a.Op < b.Op
		}
	})
	return out
}

// Totals sums the collected fragment costs — by construction the exact
// sum of the per-fragment breakdown, which is the identity the explain
// surface exposes.
func (p *Profile) Totals() obs.CostSnapshot {
	var t obs.CostSnapshot
	if p == nil {
		return t
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, fp := range p.frags {
		t.Add(fp.Cost)
	}
	return t
}

type profileCtxKey struct{}

// WithProfile returns a context carrying the profile collector.
func WithProfile(ctx context.Context, p *Profile) context.Context {
	return context.WithValue(ctx, profileCtxKey{}, p)
}

// ProfileFromContext returns the context's profile collector, or nil
// when the request is not being profiled.
func ProfileFromContext(ctx context.Context) *Profile {
	p, _ := ctx.Value(profileCtxKey{}).(*Profile)
	return p
}

// NewFragProfile starts the profile of fragment f dispatched to shard.
func NewFragProfile(shard int, f Fragment) FragProfile {
	return FragProfile{
		Step:  f.Step,
		Shard: shard,
		Op:    f.Op.String(),
		Rows:  [2]int{int(f.Rows.Lo), int(f.Rows.Hi)},
	}
}

// Done records how the fragment's evaluation ended: what it charged, how
// long it ran and, when it failed, why — budget exhaustion told apart from
// every other error.
func (fp *FragProfile) Done(cost obs.CostSnapshot, eval time.Duration, err error) {
	fp.Cost = cost
	fp.EvalMS = float64(eval) / float64(time.Millisecond)
	if err != nil {
		fp.Err = err.Error()
		fp.Exhausted = fastquery.IsExhausted(err)
	}
}
