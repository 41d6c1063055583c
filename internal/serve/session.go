package serve

// The /v1/session API: analysis sessions as first-class server state.
// A session holds named selections — compressed bitmaps over one timestep
// plus, once tracking ran, the materialized particle-ID set — so the
// paper's brush/refine/track workflow round-trips predicates and bitmap
// algebra on the server instead of re-evaluating a growing conjunction
// from scratch on every mouse movement:
//
//	POST   /v1/session                   create (server-assigned ID)
//	GET    /v1/session                   list
//	GET    /v1/session/{id}              inspect
//	DELETE /v1/session/{id}              drop
//	POST   /v1/session/{id}/select      evaluate q into a named selection;
//	                                     refine=and|or|andnot refines the
//	                                     stored bitmap with only the delta
//	                                     predicate evaluated
//	POST   /v1/session/{id}/track       follow the selected IDs across
//	                                     timesteps via one id-IN predicate
//	GET    /v1/session/{id}/views       conditional histogram panels, or
//	                                     format=png temporal parallel
//	                                     coordinates of the tracked IDs
//
// Selections partition across the shard tier exactly like every other
// operation: OpSelect scatters per-row-range fragments whose sorted
// position partials concatenate, in shard order, into the identical
// global selection a single process would compute. A partial merge (a
// shard failed) is surfaced with X-Partial and is never stored as an
// authoritative selection.

import (
	"context"
	"errors"
	"image/color"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/bitmap"
	"repro/internal/fastquery"
	"repro/internal/histogram"
	"repro/internal/obs"
	"repro/internal/pcoords"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/session"
)

// maxTrackIDs bounds how many particle IDs one track call may follow: the
// membership predicate is shipped to every shard as text, so an unbounded
// selection would turn into an unbounded query payload.
const maxTrackIDs = 100000

// registerSessions builds the session manager, its metrics, and the
// /v1/session routes. Called once from New.
func (s *Server) registerSessions() {
	s.sessions = session.NewManager(session.Config{
		TTL:         s.cfg.SessionTTL,
		MaxSessions: s.cfg.SessionMax,
		MaxBytes:    s.cfg.SessionMaxBytes,
	})
	stats := func(f func(session.Stats) float64) func() float64 {
		return func() float64 { return f(s.sessions.Stats()) }
	}
	counter := func(f func(session.Stats) uint64) func() uint64 {
		return func() uint64 { return f(s.sessions.Stats()) }
	}
	s.reg.GaugeFunc("session_active", "Live analysis sessions.",
		stats(func(st session.Stats) float64 { return float64(st.Active) }))
	s.reg.GaugeFunc("session_selections", "Named selections stored across sessions.",
		stats(func(st session.Stats) float64 { return float64(st.Selections) }))
	s.reg.GaugeFunc("session_bytes", "Bytes held by stored selections (bitmaps, ID sets, tracks).",
		stats(func(st session.Stats) float64 { return float64(st.Bytes) }))
	s.reg.CounterFunc("session_refine_reuse_total",
		"Incremental refinements that reused the stored bitmap (only the delta predicate evaluated).",
		counter(func(st session.Stats) uint64 { return st.RefineReuse }))
	s.reg.CounterFunc("session_refine_scratch_total",
		"Refinements that re-evaluated the full predicate chain (stale generation or missing bitmap).",
		counter(func(st session.Stats) uint64 { return st.RefineScratch }))
	s.reg.CounterFunc("session_partial_rejects_total",
		"Selection or track results refused storage because a shard was missing from the merge.",
		counter(func(st session.Stats) uint64 { return st.PartialRejects }))
	s.reg.CounterFunc("session_evictions_total", "Sessions evicted, by reason.",
		counter(func(st session.Stats) uint64 { return st.TTLEvictions }), obs.L("reason", "ttl"))
	s.reg.CounterFunc("session_evictions_total", "Sessions evicted, by reason.",
		counter(func(st session.Stats) uint64 { return st.CountEvictions }), obs.L("reason", "count"))
	s.reg.CounterFunc("session_evictions_total", "Sessions evicted, by reason.",
		counter(func(st session.Stats) uint64 { return st.BytesEvictions }), obs.L("reason", "bytes"))

	s.mux.HandleFunc("POST /v1/session", s.instrumented("session", s.handleSessionCreate))
	s.mux.HandleFunc("GET /v1/session", s.instrumented("session", s.handleSessionList))
	s.mux.HandleFunc("GET /v1/session/{id}", s.instrumented("session", s.handleSessionGet))
	s.mux.HandleFunc("DELETE /v1/session/{id}", s.instrumented("session", s.handleSessionDelete))
	s.mux.HandleFunc("POST /v1/session/{id}/select", s.instrumented("session-select", s.handleSessionSelect))
	s.mux.HandleFunc("POST /v1/session/{id}/track", s.instrumented("session-track", s.handleSessionTrack))
	s.mux.HandleFunc("GET /v1/session/{id}/views", s.instrumented("session-views", s.handleSessionViews))
}

// sessionName validates a client-supplied session or selection name:
// short, path-safe identifiers only.
func sessionName(raw, kind string) (string, *httpError) {
	if raw == "" || len(raw) > 64 {
		return "", errf(http.StatusBadRequest, "bad %s %q (1-64 chars of [A-Za-z0-9_-])", kind, raw)
	}
	for _, c := range raw {
		ok := c == '-' || c == '_' ||
			(c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !ok {
			return "", errf(http.StatusBadRequest, "bad %s %q (1-64 chars of [A-Za-z0-9_-])", kind, raw)
		}
	}
	return raw, nil
}

func sessionID(r *http.Request) (string, *httpError) {
	return sessionName(r.PathValue("id"), "session id")
}

// selectionName resolves the name parameter; a session's default
// selection is simply called "sel".
func selectionName(r *http.Request) (string, *httpError) {
	raw := r.FormValue("name")
	if raw == "" {
		raw = "sel"
	}
	return sessionName(raw, "selection name")
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.sessions.Create())
}

func (s *Server) handleSessionList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, SessionListBody{Sessions: s.sessions.List()})
}

func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	sid, herr := sessionID(r)
	if herr != nil {
		writeError(w, herr.status, "%s", herr.msg)
		return
	}
	info, ok := s.sessions.Get(sid)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown session %q", sid)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	sid, herr := sessionID(r)
	if herr != nil {
		writeError(w, herr.status, "%s", herr.msg)
		return
	}
	if !s.sessions.Delete(sid) {
		writeError(w, http.StatusNotFound, "unknown session %q", sid)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": sid})
}

// refineExpr folds the delta predicate into the stored canonical chain,
// mirroring the bitmap algebra exactly: and → (prev && d), or →
// (prev || d), andnot → (prev && !(d)). The result is itself canonical
// and parseable, so it can be re-evaluated from scratch on any shard.
func refineExpr(prevExpr string, delta query.Expr, mode string) (string, error) {
	prev, err := query.Parse(prevExpr)
	if err != nil {
		return "", err
	}
	var combined query.Expr
	switch mode {
	case "and":
		combined = &query.And{Terms: []query.Expr{prev, delta}}
	case "or":
		combined = &query.Or{Terms: []query.Expr{prev, delta}}
	case "andnot":
		combined = &query.And{Terms: []query.Expr{prev, &query.Not{Term: delta}}}
	default:
		return "", errors.New("unknown refine mode")
	}
	return query.Canonical(combined).String(), nil
}

// refineAtPositions is the incremental-brushing fast path: an and/andnot
// refinement can only shrink the stored selection, so the only candidate
// rows are the currently selected ones. The delta predicate is evaluated
// at exactly those positions — a gather of the delta's columns plus
// |selection| comparisons — with no scatter and no full-domain
// materialization; refinement cost tracks the selection size, not the
// dataset size.
func refineAtPositions(ctx context.Context, req *request, prev *bitmap.Vector, mode string) (*bitmap.Vector, error) {
	sctx, sp := obs.StartSpan(ctx, "refine-at-selection")
	defer sp.End()
	pos := prev.Positions()
	vars := query.Vars(req.expr)
	cols := make(map[string][]float64, len(vars))
	for _, v := range vars {
		vals, err := req.st.ValuesAtCtx(sctx, v, pos)
		if err != nil {
			return nil, err
		}
		cols[v] = vals
	}
	idx := 0
	rowf := func(name string) float64 { return cols[name][idx] }
	want := mode == "and" // andnot keeps the rows the delta does NOT match
	keep := make([]uint64, 0, len(pos))
	for i, p := range pos {
		idx = i
		if req.expr.Eval(rowf) == want {
			keep = append(keep, p)
		}
	}
	sp.SetAttr("candidates", strconv.Itoa(len(pos)))
	return bitmap.FromPositions(req.st.Rows(), keep)
}

// handleSessionSelect evaluates a predicate into a named selection, or
// refines the stored one. A refinement whose stored bitmap is still valid
// (same catalog generation, same row count) evaluates only the delta
// predicate — for and/andnot at just the selected positions, for or over
// the domain followed by a bitmap union — otherwise the folded chain
// re-evaluates from scratch. Select deliberately bypasses the result
// cache: the session is the cache, and each refinement's predicate is
// novel anyway.
func (s *Server) handleSessionSelect(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sid, herr := sessionID(r)
	if herr != nil {
		writeError(w, herr.status, "%s", herr.msg)
		return
	}
	name, herr := selectionName(r)
	if herr != nil {
		writeError(w, herr.status, "%s", herr.msg)
		return
	}
	req, herr := s.parseRequest(r, true)
	if herr != nil {
		writeError(w, herr.status, "%s", herr.msg)
		return
	}
	mode := r.FormValue("refine")
	switch mode {
	case "", "and", "or", "andnot":
	default:
		writeError(w, http.StatusBadRequest, "unknown refine mode %q (and | or | andnot)", mode)
		return
	}
	var prev session.Selection
	if mode != "" {
		var ok bool
		prev, ok = s.sessions.Selection(sid, name)
		if !ok {
			writeError(w, http.StatusNotFound,
				"session %q has no selection %q to refine; select without refine first", sid, name)
			return
		}
		if prev.Dataset != req.d.name || prev.Step != req.t {
			writeError(w, http.StatusConflict,
				"selection %q is over %s step %d, request names %s step %d",
				name, prev.Dataset, prev.Step, req.d.name, req.t)
			return
		}
	}

	admitStart := time.Now()
	release, aerr := s.admit(r, ClassDrill)
	req.waitMS = float64(time.Since(admitStart)) / float64(time.Millisecond)
	if aerr != nil {
		s.writeShed(w, ClassDrill, aerr)
		return
	}
	defer release()
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	if req.prof != nil {
		ctx = plan.WithProfile(ctx, req.prof)
	}

	rows := req.st.Rows()
	effective := req.plan
	// reused: the stored bitmap is still authoritative (generation and row
	// count unchanged), so only the delta predicate needs evaluating.
	reused := false
	if mode != "" {
		eff, err := refineExpr(prev.Expr, req.expr, mode)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "refine %q: %v", prev.Expr, err)
			return
		}
		effective = eff
		reused = prev.Bits != nil && prev.Gen == req.gen && prev.Rows == rows
	}
	var res *plan.Result
	var bits *bitmap.Vector
	var err error
	if reused && mode != "or" {
		// and / andnot with a valid stored bitmap: evaluate the delta only
		// at the selected positions, no scatter at all.
		bits, err = refineAtPositions(ctx, req, prev.Bits, mode)
		if err != nil {
			s.writeExecError(w, err)
			return
		}
	} else {
		pq := req.planQuery(plan.OpSelect)
		if mode != "" && !reused {
			pq.Query = effective
		}
		res, err = s.execPlan(ctx, req.d, pq, rows)
		if err != nil {
			s.writeExecError(w, err)
			return
		}
	}

	body := SessionSelectBody{
		Session: sid, Name: name,
		Dataset: req.d.name, Step: req.t,
		Query: req.src, Plan: req.plan, Expr: effective,
		Backend: req.backend.String(), Refine: mode,
		Rows: rows, Reused: reused,
		Trace: traceEcho(r),
	}
	if res != nil {
		body.Partial, body.FailedShards = res.Partial, res.Failed
	}
	if body.Partial {
		// Store-or-reject: a selection merged without every shard must
		// never become the authoritative brush other refinements and
		// tracks build on.
		s.sessions.NotePartialReject()
		body.Matches = uint64(len(res.Sel))
	} else {
		if bits == nil {
			bits, err = bitmap.FromPositions(rows, res.Sel)
			if err != nil {
				s.writeExecError(w, err)
				return
			}
			if mode != "" && reused {
				// or: the delta had to be evaluated over the whole domain,
				// but the stored bitmap still spares the folded chain.
				bits, err = session.Combine(prev.Bits, bits, mode)
				if err != nil {
					s.writeExecError(w, err)
					return
				}
			}
		}
		if mode != "" {
			if reused {
				s.sessions.NoteReuse()
			} else {
				s.sessions.NoteScratch()
			}
			body.Refines = prev.Refines + 1
		}
		sel := session.Selection{
			Name: name, Dataset: req.d.name, Step: req.t,
			Gen: req.gen, Backend: req.backend.String(),
			Expr: effective, Bits: bits,
			Count: bits.Count(), Rows: rows, Refines: body.Refines,
		}
		if perr := s.sessions.Put(sid, sel); perr != nil {
			status := http.StatusInternalServerError
			if errors.Is(perr, session.ErrTooLarge) {
				status = http.StatusRequestEntityTooLarge
			}
			writeError(w, status, "%v", perr)
			return
		}
		body.Stored = true
		body.Matches = sel.Count
		body.SizeBytes = sel.SizeBytes()
	}
	if rows > 0 {
		body.Selectivity = float64(body.Matches) / float64(rows)
	}
	body.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	s.noteExplain(r, req, res, Computed, "")
	if res != nil {
		markPartial(w, res)
	}
	if req.explain {
		s.explains.Inc()
		body.Explain = s.buildExplain(ctx, r, req, "session-select", res, Computed, "", start)
		if req.explainOnly {
			writeBody(r, w, explainOnlyBody{Explain: body.Explain})
			return
		}
	}
	writeBody(r, w, body)
}

// datasetByName resolves a stored selection's dataset.
func (s *Server) datasetByName(name string) (*dataset, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.datasets[name]
	return d, ok
}

// selBackend maps a stored selection's backend string back to the enum.
func selBackend(b string) fastquery.Backend {
	if b == fastquery.FastBit.String() {
		return fastquery.FastBit
	}
	return fastquery.Scan
}

// fetchSelection resolves {id} + name to the stored selection and its
// dataset, writing the error response itself on failure.
func (s *Server) fetchSelection(w http.ResponseWriter, r *http.Request) (string, session.Selection, *dataset, bool) {
	sid, herr := sessionID(r)
	if herr == nil {
		var name string
		if name, herr = selectionName(r); herr == nil {
			sel, ok := s.sessions.Selection(sid, name)
			if !ok {
				writeError(w, http.StatusNotFound, "session %q has no selection %q", sid, name)
				return "", session.Selection{}, nil, false
			}
			d, ok := s.datasetByName(sel.Dataset)
			if !ok {
				writeError(w, http.StatusNotFound, "selection %q names unknown dataset %q", name, sel.Dataset)
				return "", session.Selection{}, nil, false
			}
			return sid, sel, d, true
		}
	}
	writeError(w, herr.status, "%s", herr.msg)
	return "", session.Selection{}, nil, false
}

// handleSessionTrack follows a selection's particles across timesteps:
// the selected positions materialize into the ID column's values once,
// then every requested step is counted under one canonical `id in (...)`
// membership predicate — the cross-timestep query of paper Section III-B,
// batched as a single call. Runs at sweep priority; a partial step means
// the track is reported but not stored.
func (s *Server) handleSessionTrack(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sid, sel, d, ok := s.fetchSelection(w, r)
	if !ok {
		return
	}
	steps, herr := stepsParam(r, d)
	if herr != nil {
		writeError(w, herr.status, "%s", herr.msg)
		return
	}
	st, err := d.step(sel.Step)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	req := &request{d: d, st: st, t: sel.Step, gen: sel.Gen, plan: sel.Expr, backend: selBackend(sel.Backend)}
	if req.explain, req.explainOnly = parseExplain(r); req.explain {
		req.prof = plan.NewProfile()
	}

	admitStart := time.Now()
	release, aerr := s.admit(r, ClassSweep)
	req.waitMS = float64(time.Since(admitStart)) / float64(time.Millisecond)
	if aerr != nil {
		s.writeShed(w, ClassSweep, aerr)
		return
	}
	defer release()
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	if req.prof != nil {
		ctx = plan.WithProfile(ctx, req.prof)
	}

	ids := sel.IDs
	if len(ids) == 0 && sel.Count > 0 {
		// Materialize the ID set from the stored positions. Positions are
		// only meaningful at the generation the bitmap was built against;
		// once an ingest moved the step, the selection must be re-run.
		if sel.Gen != d.stepGen(sel.Step) {
			writeError(w, http.StatusConflict,
				"selection %q is stale (step %d generation moved); re-run select", sel.Name, sel.Step)
			return
		}
		if sel.Count > maxTrackIDs {
			writeError(w, http.StatusRequestEntityTooLarge,
				"selection has %d particles, tracking caps at %d; refine further", sel.Count, maxTrackIDs)
			return
		}
		if herr := checkVars(d, st.IDVar()); herr != nil {
			writeError(w, http.StatusBadRequest,
				"dataset %q has no identifier column (%q); tracking needs one", d.name, st.IDVar())
			return
		}
		ids, err = st.IDsAtCtx(ctx, sel.Bits.Positions())
		if err != nil {
			s.writeExecError(w, err)
			return
		}
	}

	var sum *plan.Result // nil when there were no IDs to follow
	body := SessionTrackBody{
		Session: sid, Name: sel.Name, Dataset: d.name,
		Step: sel.Step, Backend: sel.Backend, IDVar: st.IDVar(),
		IDs: len(ids), Steps: steps,
		Counts: make([]uint64, len(steps)),
		Trace:  traceEcho(r),
	}
	if len(ids) > 0 {
		fids := make([]float64, len(ids))
		for i, id := range ids {
			fids[i] = float64(id)
		}
		body.Expr = query.Canonical(query.NewIn(st.IDVar(), fids)).String()
		pqs := make([]plan.Query, len(steps))
		for i, t := range steps {
			pqs[i] = plan.Query{Op: plan.OpCount, Dataset: d.name, Step: t,
				Query: body.Expr, Backend: req.backend}
		}
		var results []*plan.Result
		if results, sum, err = s.execPlans(ctx, d, pqs); err != nil {
			s.writeExecError(w, err)
			return
		}
		for i, res := range results {
			body.Counts[i] = res.Count
		}
		body.Partial, body.FailedSteps = sum.Partial, partialSteps(pqs, results)
	}
	if body.Partial {
		// Store-or-reject, same rule as select: a track missing a shard's
		// rows on any step is not an authoritative trajectory.
		s.sessions.NotePartialReject()
		w.Header().Set("X-Partial", "1")
	} else {
		sel.IDs = ids
		sel.Track = &session.Track{Steps: steps, Counts: body.Counts, Expr: body.Expr}
		if perr := s.sessions.Put(sid, sel); perr != nil {
			status := http.StatusInternalServerError
			if errors.Is(perr, session.ErrTooLarge) {
				status = http.StatusRequestEntityTooLarge
			}
			writeError(w, status, "%v", perr)
			return
		}
		body.Stored = true
	}
	body.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	s.noteExplain(r, req, sum, Computed, "")
	if req.explain {
		s.explains.Inc()
		body.Explain = s.buildExplain(ctx, r, req, "session-track", sum, Computed, "", start)
		if req.explainOnly {
			writeBody(r, w, explainOnlyBody{Explain: body.Explain})
			return
		}
	}
	writeBody(r, w, body)
}

// viewVars resolves the axis variables for a views request: an explicit
// comma-separated list, or the dataset's first variables (sorted, ID
// column dropped, capped at four).
func viewVars(r *http.Request, d *dataset, idVar string) ([]string, *httpError) {
	if raw := r.FormValue("vars"); raw != "" {
		vars := strings.Split(raw, ",")
		for i := range vars {
			vars[i] = strings.TrimSpace(vars[i])
		}
		if herr := checkVars(d, vars...); herr != nil {
			return nil, herr
		}
		return vars, nil
	}
	all := d.src.Variables()
	sort.Strings(all)
	vars := make([]string, 0, 4)
	for _, v := range all {
		if v == idVar {
			continue
		}
		vars = append(vars, v)
		if len(vars) == 4 {
			break
		}
	}
	if len(vars) < 2 {
		return nil, errf(http.StatusBadRequest, "dataset %q has too few variables for a view", d.name)
	}
	return vars, nil
}

// layerPalette colours temporal layers the way the paper's Fig. 9 does:
// one hue per timestep, cycling.
var layerPalette = []color.RGBA{
	{90, 200, 250, 255},  // cyan
	{255, 180, 60, 255},  // amber
	{170, 120, 255, 255}, // violet
	{120, 230, 120, 255}, // green
	{255, 110, 130, 255}, // rose
	{240, 240, 130, 255}, // yellow
}

// handleSessionViews renders a stored selection: JSON conditional 1D
// histogram panels per axis variable by default, or (format=png) a
// histogram-based parallel coordinates plot — temporal, one layer per
// tracked timestep, once the selection has been tracked.
func (s *Server) handleSessionViews(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sid, sel, d, ok := s.fetchSelection(w, r)
	if !ok {
		return
	}
	st, err := d.step(sel.Step)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	vars, herr := viewVars(r, d, st.IDVar())
	if herr != nil {
		writeError(w, herr.status, "%s", herr.msg)
		return
	}
	bins, herr := intParam(r, "bins", 32, 2, 512)
	if herr != nil {
		writeError(w, herr.status, "%s", herr.msg)
		return
	}
	format := r.FormValue("format")
	if format != "" && format != "json" && format != "png" {
		writeError(w, http.StatusBadRequest, "unknown format %q (json | png)", format)
		return
	}
	backend := selBackend(sel.Backend)

	release, aerr := s.admit(r, ClassSweep)
	if aerr != nil {
		s.writeShed(w, ClassSweep, aerr)
		return
	}
	defer release()
	ctx, cancel := s.requestCtx(r)
	defer cancel()

	// Axis ranges come from the step's variable metadata so histogram
	// edges and plot axes agree exactly.
	axes := make([]pcoords.Axis, len(vars))
	for i, v := range vars {
		lo, hi, err := st.MinMax(v)
		if err != nil {
			s.writeExecError(w, err)
			return
		}
		if !(hi > lo) {
			hi = lo + 1
		}
		axes[i] = pcoords.Axis{Var: v, Min: lo, Max: hi}
	}

	// Temporal views follow the tracked ID membership predicate across the
	// tracked steps; an untracked selection renders its own step only.
	steps, pred := []int{sel.Step}, sel.Expr
	if sel.Track != nil && sel.Track.Expr != "" {
		steps, pred = sel.Track.Steps, sel.Track.Expr
	}

	if format == "png" {
		plot, err := pcoords.New(axes, pcoords.DefaultOptions())
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		// One plan per (step, adjacent axis pair), step-major.
		pairs := len(axes) - 1
		pqs := make([]plan.Query, 0, len(steps)*pairs)
		for _, t := range steps {
			for i := 0; i < pairs; i++ {
				spec := histogram.NewSpec2D(axes[i].Var, axes[i+1].Var, bins, bins)
				spec.XLo, spec.XHi = axes[i].Min, axes[i].Max
				spec.YLo, spec.YHi = axes[i+1].Min, axes[i+1].Max
				pqs = append(pqs, plan.Query{Op: plan.OpHist2D, Dataset: d.name, Step: t,
					Query: pred, Backend: backend, Spec2: spec})
			}
		}
		results, sum, err := s.execPlans(ctx, d, pqs)
		if err != nil {
			s.writeExecError(w, err)
			return
		}
		for si := range steps {
			hists := make([]*histogram.Hist2D, pairs)
			for i := range hists {
				hists[i] = results[si*pairs+i].Hist2
			}
			layer := &pcoords.HistLayer{Hists: hists, Color: layerPalette[si%len(layerPalette)]}
			if err := plot.AddHistLayer(layer); err != nil {
				s.writeExecError(w, err)
				return
			}
		}
		canvas, err := plot.Render()
		if err != nil {
			s.writeExecError(w, err)
			return
		}
		markPartial(w, sum)
		w.Header().Set("Content-Type", "image/png")
		canvas.EncodePNG(w) //nolint:errcheck // client gone; nothing to do
		return
	}

	body := SessionViewsBody{
		Session: sid, Name: sel.Name, Dataset: d.name,
		Step: sel.Step, Backend: sel.Backend, Expr: pred,
		Vars: vars, Steps: steps, Temporal: sel.Track != nil,
		Trace: traceEcho(r),
	}
	for i, v := range vars {
		spec := histogram.NewSpec1D(v, bins)
		spec.Lo, spec.Hi = axes[i].Min, axes[i].Max
		pq := plan.Query{Op: plan.OpHist1D, Dataset: d.name, Step: sel.Step,
			Query: sel.Expr, Backend: backend, Spec1: spec}
		res, err := s.execPlan(ctx, d, pq, st.Rows())
		if err != nil {
			s.writeExecError(w, err)
			return
		}
		if res.Partial {
			body.Partial = true
		}
		body.Panels = append(body.Panels, ViewPanel{
			Var: v, Edges: res.Hist1.Edges, Counts: res.Hist1.Counts, Total: res.Hist1.Total(),
		})
	}
	if body.Partial {
		w.Header().Set("X-Partial", "1")
	}
	body.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	writeBody(r, w, body)
}
