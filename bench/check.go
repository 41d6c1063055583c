package main

// Correctness checks. Each compares answers the measured window actually
// produced against a second opinion: the scan backend, a single process, the
// plain query endpoint, or the directory after a crash. A disagreement is a
// wrong answer and counts in fail_frac like a failed request.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/url"
	"reflect"
	"strconv"
)

// stable decodes a JSON answer and drops the fields that legitimately vary
// between two askings of the same question.
func stable(body []byte, drop ...string) (map[string]any, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var m map[string]any
	if err := dec.Decode(&m); err != nil {
		return nil, err
	}
	for _, k := range append([]string{"elapsed_ms", "outcome", "trace", "explain"}, drop...) {
		delete(m, k)
	}
	return m, nil
}

// sameAnswer reports whether two bodies agree after dropping volatile fields.
func sameAnswer(a, b []byte, drop ...string) (bool, error) {
	ma, err := stable(a, drop...)
	if err != nil {
		return false, err
	}
	mb, err := stable(b, drop...)
	if err != nil {
		return false, err
	}
	return reflect.DeepEqual(ma, mb), nil
}

// reask sends each kept request again through f after edit and compares.
func reask(f *fleet, keptAnswers []kept, edit func(*request), drop ...string) (checked int, wrong []string) {
	for _, k := range keptAnswers {
		if checked >= checkN {
			break
		}
		if k.Call.Req == nil || k.Call.Req.Step < 0 {
			continue // the newest step of a live dataset has moved on
		}
		req := *k.Call.Req
		edit(&req)
		a := f.do(reqCall(req, false))
		checked++
		if !a.ok() {
			wrong = append(wrong, fmt.Sprintf("re-ask %s: %v", req.URL(), a.Err))
			continue
		}
		same, err := sameAnswer(k.Body, a.Body, drop...)
		if err != nil || !same {
			wrong = append(wrong, fmt.Sprintf("answers differ for %s (err %v)", k.Call.URL, err))
		}
	}
	return checked, wrong
}

// checkScanAgrees re-asks index-backed answers with backend=scan: the two
// backends are independent implementations and must agree cell for cell.
func checkScanAgrees(r *run, w *windowResult) (int, []string) {
	var indexed []kept
	for _, k := range w.Kept {
		if k.Call.Req != nil && k.Call.Req.Backend == "" {
			indexed = append(indexed, k)
		}
	}
	return reask(r.fleet, indexed, func(q *request) { q.Backend = "scan" }, "backend")
}

// checkLocalAgrees re-asks the sharded fleet's answers of a single process:
// scatter and merge must not change a cell.
func checkLocalAgrees(r *run, w *windowResult) (int, []string) {
	local, err := startFleet(r.p, fleetLocal, r.p.d12(), r.w.Name+"-oracle")
	if err != nil {
		return 1, []string{"local oracle: " + err.Error()}
	}
	defer local.stop()
	return reask(local, w.Kept, func(*request) {})
}

// checkSessions asks /v1/query for the folded predicate of the first chains:
// the incrementally refined selection must hold exactly those rows.
func checkSessions(r *run, _ *windowResult) (checked int, wrong []string) {
	for _, s := range r.sessions {
		if checked >= checkN {
			break
		}
		checked++
		if !s.TrackOK {
			wrong = append(wrong, "track lost particles at the brushed step: "+s.Expr)
			continue
		}
		v := url.Values{"step": {strconv.Itoa(s.Chain.Step)}, "q": {s.Expr}}
		a := r.fleet.do(call{URL: "/v1/query?" + v.Encode()})
		var body struct {
			Matches uint64 `json:"matches"`
		}
		if !a.ok() || json.Unmarshal(a.Body, &body) != nil {
			wrong = append(wrong, fmt.Sprintf("query %q: %v", s.Expr, a.Err))
			continue
		}
		if body.Matches != s.Matches {
			wrong = append(wrong, fmt.Sprintf("session holds %d rows, query finds %d for %q", s.Matches, body.Matches, s.Expr))
		}
	}
	return checked, wrong
}

// checkDurable crashes the live server, restarts it on the same directory
// and requires every acknowledged step to be served with its row count.
func checkDurable(r *run, w *windowResult) (checked int, wrong []string) {
	checked, wrong = checkScanAgrees(r, w)
	r.fleet.kill9()
	f, err := startFleet(r.p, fleetLive, r.dataDir, r.w.Name+"-restart")
	if err != nil {
		return checked + 1, append(wrong, "restart after kill -9: "+err.Error())
	}
	r.fleet = f
	sb, err := r.stepsDetail()
	if err != nil {
		return checked + 1, append(wrong, "steps after restart: "+err.Error())
	}
	for _, ack := range r.acks {
		checked++
		if ack.Step >= len(sb.Detail) || sb.Detail[ack.Step].Rows != ack.Rows {
			wrong = append(wrong, fmt.Sprintf("acknowledged step %d (%d rows) not served after the crash", ack.Step, ack.Rows))
		}
	}
	return checked, wrong
}
