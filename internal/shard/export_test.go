package shard

import "repro/internal/plan"

// HoldSelection starts a flight for the shared selection f reads, as a
// leader evaluating it would; end finishes the flight without a result,
// as a failed or canceled leader does.
func (e *Executor) HoldSelection(f plan.Fragment) (end func()) {
	sf, ok := selectionOf(f)
	if !ok {
		panic("shard: fragment reads no shared selection")
	}
	key := sf.Key()
	fl := &flight{done: make(chan struct{})}
	e.flightMu.Lock()
	e.flights[key] = fl
	e.flightMu.Unlock()
	return func() {
		e.flightMu.Lock()
		delete(e.flights, key)
		e.flightMu.Unlock()
		close(fl.done)
	}
}
