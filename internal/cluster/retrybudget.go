package cluster

import "sync"

// This file implements a global retry budget: a token bucket refilled as
// a fraction of successful calls and spent by every retry, failover and
// hedge. During a brownout naive retry policies multiply offered load
// exactly when the fleet can least afford it; with a budget the extra
// attempts are bounded to RetryBudgetRatio of the recent success rate,
// and once the bucket is empty calls fail fast into the partial-merge
// path instead of amplifying the storm.

// RetryBudget is a token bucket shared by every caller of a pool (or,
// via PoolConfig.RetryBudget, across many pools — the per-process global
// budget the frontend uses). A nil *RetryBudget is an unlimited budget.
type RetryBudget struct {
	mu     sync.Mutex
	ratio  float64 // tokens added per successful call
	tokens float64
}

// retryBudgetBurst caps a retry budget's bucket, which starts full.
const retryBudgetBurst = 20

// NewRetryBudget builds a bucket that starts full: each success refills
// ratio tokens up to retryBudgetBurst, each extra attempt spends one.
func NewRetryBudget(ratio float64) *RetryBudget {
	b := &RetryBudget{ratio: ratio, tokens: retryBudgetBurst}
	metricRetryBudgetTokens.Set(b.tokens)
	return b
}

// Success credits the bucket for one successful call.
func (b *RetryBudget) Success() {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.tokens += b.ratio
	if b.tokens > retryBudgetBurst {
		b.tokens = retryBudgetBurst
	}
	metricRetryBudgetTokens.Set(b.tokens)
	b.mu.Unlock()
}

// Spend takes one token for a retry, failover or hedge. It reports false
// — and the caller must skip the extra attempt — when the bucket is
// empty.
func (b *RetryBudget) Spend() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		metricRetryBudgetExhausted.Inc()
		return false
	}
	b.tokens--
	metricRetryBudgetTokens.Set(b.tokens)
	return true
}

// Tokens returns the current token count, for stats and tests.
func (b *RetryBudget) Tokens() float64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tokens
}
