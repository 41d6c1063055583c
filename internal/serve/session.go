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

	"repro/internal/bitmap"
	"repro/internal/fastquery"
	"repro/internal/histogram"
	"repro/internal/obs"
	"repro/internal/pcoords"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/render"
	"repro/internal/session"
)

// maxTrackIDs bounds how many particle IDs one track call may follow: the
// membership predicate is shipped to every shard as text, so an unbounded
// selection would turn into an unbounded query payload.
const maxTrackIDs = 100000

// registerSessions builds the session manager, its metrics, and the
// /v1/session routes. Called once from New.
func (s *Server) registerSessions() {
	s.sessions = session.NewManager(session.Config{})
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
	s.mux.HandleFunc("POST /v1/session/{id}/select", s.pipelined("session-select", s.selectOp))
	s.mux.HandleFunc("POST /v1/session/{id}/track", s.pipelined("session-track", s.trackOp))
	s.mux.HandleFunc("GET /v1/session/{id}/views", s.pipelined("session-views", s.viewsOp))
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
	err := evalProfiled(sctx, plan.FragProfile{Step: req.t, Op: "refine-at-selection"}, func(ctx context.Context) (err error) {
		for _, v := range vars {
			if cols[v], err = req.st.ValuesAtCtx(ctx, v, pos); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	match := query.Bind(req.expr, cols) // cols[v][i] is v at pos[i]
	want := mode == "and"               // andnot keeps the rows the delta does NOT match
	keep := make([]uint64, 0, len(pos))
	for i, p := range pos {
		if match(i) == want {
			keep = append(keep, p)
		}
	}
	sp.SetAttr("candidates", strconv.Itoa(len(pos)))
	return bitmap.FromPositions(req.st.Rows(), keep)
}

// putSelection stores sel; a selection over the store's byte budget is the
// client's 413, any other refusal the error mapper's 500.
func (s *Server) putSelection(sid string, sel session.Selection) error {
	err := s.sessions.Put(sid, sel)
	if errors.Is(err, session.ErrTooLarge) {
		return errf(http.StatusRequestEntityTooLarge, "%v", err)
	}
	return err
}

// selectOp is POST /v1/session/{id}/select: evaluate a predicate into a
// named selection, or refine the stored one. A refinement whose stored
// bitmap is still valid (same catalog generation, same row count)
// evaluates only the delta predicate — for and/andnot at just the selected
// positions, for or over the domain followed by a bitmap union — otherwise
// the folded chain re-evaluates from scratch. Select deliberately bypasses
// the result cache: the session is the cache, and each refinement's
// predicate is novel anyway.
func (s *Server) selectOp(r *http.Request) (*op, *httpError) {
	sid, herr := sessionID(r)
	if herr != nil {
		return nil, herr
	}
	name, herr := selectionName(r)
	if herr != nil {
		return nil, herr
	}
	req, herr := s.parseRequest(r, true)
	if herr != nil {
		return nil, herr
	}
	rows := req.st.Rows()
	body := SessionSelectBody{
		Session: sid, Name: name,
		Dataset: req.d.name, Step: req.t,
		Query: req.src, Plan: req.plan, Expr: req.plan,
		Backend: req.backend.String(), Refine: r.FormValue("refine"),
		Rows: rows,
	}
	mode := body.Refine
	var prev session.Selection
	switch mode {
	case "":
	case "and", "or", "andnot":
		var ok bool
		if prev, ok = s.sessions.Selection(sid, name); !ok {
			return nil, errf(http.StatusNotFound,
				"session %q has no selection %q to refine; select without refine first", sid, name)
		}
		if prev.Dataset != req.d.name || prev.Step != req.t {
			return nil, errf(http.StatusConflict,
				"selection %q is over %s step %d, request names %s step %d",
				name, prev.Dataset, prev.Step, req.d.name, req.t)
		}
		var err error
		if body.Expr, err = refineExpr(prev.Expr, req.expr, mode); err != nil {
			return nil, errf(http.StatusInternalServerError, "refine %q: %v", prev.Expr, err)
		}
		// Reused: the stored bitmap is still authoritative (generation and
		// row count unchanged), so only the delta predicate needs evaluating.
		body.Reused = prev.Bits != nil && prev.Gen == req.sn.gen(req.t) && prev.Rows == rows
	default:
		return nil, errf(http.StatusBadRequest, "unknown refine mode %q (and | or | andnot)", mode)
	}
	exec := func(ctx context.Context) (res *plan.Result, err error) {
		var bits *bitmap.Vector
		if body.Reused && mode != "or" {
			// and / andnot with a valid stored bitmap: evaluate the delta only
			// at the selected positions, no scatter at all.
			if bits, err = refineAtPositions(ctx, req, prev.Bits, mode); err != nil {
				return nil, err
			}
		} else {
			pq := req.planQuery(plan.OpSelect)
			if !body.Reused {
				pq.Query = body.Expr
			}
			if res, err = s.execPlan(ctx, req, pq); err != nil {
				return nil, err
			}
			if res.Partial {
				// Store-or-reject: a selection merged without every shard must
				// never become the authoritative brush other refinements and
				// tracks build on.
				s.sessions.NotePartialReject()
				body.Matches = uint64(len(res.Sel))
				return res, nil
			}
			if bits, err = bitmap.FromPositions(rows, res.Sel); err != nil {
				return nil, err
			}
			if body.Reused {
				// or: the delta had to be evaluated over the whole domain,
				// but the stored bitmap still spares the folded chain.
				if bits, err = session.Combine(prev.Bits, bits, mode); err != nil {
					return nil, err
				}
			}
		}
		if mode != "" {
			if body.Reused {
				s.sessions.NoteReuse()
			} else {
				s.sessions.NoteScratch()
			}
			body.Refines = prev.Refines + 1
		}
		sel := session.Selection{
			Name: name, Dataset: req.d.name, Step: req.t,
			Gen: req.sn.gen(req.t), Backend: body.Backend,
			Expr: body.Expr, Bits: bits,
			Count: bits.Count(), Rows: rows, Refines: body.Refines,
		}
		if err := s.putSelection(sid, sel); err != nil {
			return nil, err
		}
		body.Stored, body.Matches, body.SizeBytes = true, sel.Count, sel.SizeBytes()
		return res, nil
	}
	return &op{class: ClassDrill, exec: exec, body: func(_ *plan.Result, m ResponseMeta) any {
		if rows > 0 {
			body.Selectivity = float64(body.Matches) / float64(rows)
		}
		body.ResponseMeta = m
		return body
	}}, nil
}

// selBackend maps a stored selection's backend string back to the enum.
func selBackend(b string) fastquery.Backend {
	if b == fastquery.FastBit.String() {
		return fastquery.FastBit
	}
	return fastquery.Scan
}

// fetchSelection resolves {id} + name to the stored selection, its dataset
// and that dataset's snapshot, and the open step it was brushed on.
func (s *Server) fetchSelection(r *http.Request) (sid string, sel session.Selection, d *dataset, sn *snapshot, st *fastquery.Step, herr *httpError) {
	if sid, herr = sessionID(r); herr != nil {
		return
	}
	name, herr := selectionName(r)
	if herr != nil {
		return
	}
	var ok bool
	if sel, ok = s.sessions.Selection(sid, name); !ok {
		herr = errf(http.StatusNotFound, "session %q has no selection %q", sid, name)
		return
	}
	if d, herr = s.dataset(sel.Dataset); herr != nil {
		return
	}
	sn = d.snap.Load()
	st, err := d.step(sn, sel.Step)
	if err != nil {
		herr = errf(http.StatusInternalServerError, "%v", err)
	}
	return
}

// trackOp is POST /v1/session/{id}/track: follow a selection's particles
// across timesteps. The selected positions materialize into the ID
// column's values once, then every requested step is counted under one
// canonical `id in (...)` membership predicate — the cross-timestep query
// of paper Section III-B, batched as a single call. Runs at sweep priority;
// a partial step means the track is reported but not stored.
func (s *Server) trackOp(r *http.Request) (*op, *httpError) {
	sid, sel, d, sn, st, herr := s.fetchSelection(r)
	if herr != nil {
		return nil, herr
	}
	steps, herr := stepsParam(r, sn)
	if herr != nil {
		return nil, herr
	}
	// The ID set materializes from the stored positions, which are only
	// meaningful at the generation the bitmap was built against; once an
	// ingest moved the step, the selection must be re-run.
	materialize := len(sel.IDs) == 0 && sel.Count > 0
	switch {
	case !materialize:
	case sel.Gen != sn.gen(sel.Step):
		return nil, errf(http.StatusConflict,
			"selection %q is stale (step %d generation moved); re-run select", sel.Name, sel.Step)
	case sel.Count > maxTrackIDs:
		return nil, errf(http.StatusRequestEntityTooLarge,
			"selection has %d particles, tracking caps at %d; refine further", sel.Count, maxTrackIDs)
	case checkVars(sn, st.IDVar()) != nil:
		return nil, errf(http.StatusBadRequest,
			"dataset %q has no identifier column (%q); tracking needs one", d.name, st.IDVar())
	}
	body := SessionTrackBody{
		Session: sid, Name: sel.Name, Dataset: d.name,
		Step: sel.Step, Backend: sel.Backend, IDVar: st.IDVar(),
		Steps: steps, Counts: make([]uint64, len(steps)),
	}
	var failedSteps []int
	exec := func(ctx context.Context) (sum *plan.Result, err error) {
		ids := sel.IDs
		if materialize {
			err = evalProfiled(ctx, plan.FragProfile{Step: sel.Step, Op: "ids-at-selection"}, func(ctx context.Context) (err error) {
				ids, err = st.IDsAtCtx(ctx, sel.Bits.Positions())
				return err
			})
			if err != nil {
				return nil, err
			}
		}
		body.IDs = len(ids)
		if len(ids) > 0 { // otherwise nothing to follow: no plan runs
			fids := make([]float64, len(ids))
			for i, id := range ids {
				fids[i] = float64(id)
			}
			body.Expr = query.Canonical(query.NewIn(st.IDVar(), fids)).String()
			pqs := make([]plan.Query, len(steps))
			for i, t := range steps {
				pqs[i] = plan.Query{Op: plan.OpCount, Dataset: d.name, Step: t,
					Query: body.Expr, Backend: selBackend(sel.Backend)}
			}
			var results []*plan.Result
			if results, sum, err = s.execPlans(ctx, d, sn, pqs); err != nil {
				return nil, err
			}
			for i, res := range results {
				body.Counts[i] = res.Count
			}
			if failedSteps = partialSteps(pqs, results); sum.Partial {
				// Store-or-reject, same rule as select: a track missing a
				// shard's rows on any step is not an authoritative trajectory.
				s.sessions.NotePartialReject()
				return sum, nil
			}
		}
		sel.IDs = ids
		sel.Track = &session.Track{Steps: steps, Counts: body.Counts, Expr: body.Expr}
		if err := s.putSelection(sid, sel); err != nil {
			return nil, err
		}
		body.Stored = true
		return sum, nil
	}
	return &op{class: ClassSweep, exec: exec, body: func(_ *plan.Result, m ResponseMeta) any {
		m.FailedSteps = failedSteps
		body.ResponseMeta = m
		return body
	}}, nil
}

// viewVars resolves the axis variables for a views request: an explicit
// comma-separated list, or the dataset's first variables (sorted, ID
// column dropped, capped at four).
func viewVars(r *http.Request, d *dataset, sn *snapshot, idVar string) ([]string, *httpError) {
	if raw := r.FormValue("vars"); raw != "" {
		vars := strings.Split(raw, ",")
		for i := range vars {
			vars[i] = strings.TrimSpace(vars[i])
		}
		if herr := checkVars(sn, vars...); herr != nil {
			return nil, herr
		}
		return vars, nil
	}
	all := sn.variables()
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

// viewsOp is GET /v1/session/{id}/views: render a stored selection as JSON
// conditional 1D histogram panels per axis variable by default, or
// (format=png) as a histogram-based parallel coordinates plot — temporal,
// one layer per tracked timestep, once the selection has been tracked.
// Either way the panels are one planner batch.
func (s *Server) viewsOp(r *http.Request) (*op, *httpError) {
	sid, sel, d, sn, st, herr := s.fetchSelection(r)
	if herr != nil {
		return nil, herr
	}
	vars, herr := viewVars(r, d, sn, st.IDVar())
	if herr != nil {
		return nil, herr
	}
	bins, herr := intParam(r, "bins", 32, 2, 512)
	if herr != nil {
		return nil, herr
	}
	format := r.FormValue("format")
	if format != "" && format != "json" && format != "png" {
		return nil, errf(http.StatusBadRequest, "unknown format %q (json | png)", format)
	}
	// Temporal views follow the tracked ID membership predicate across the
	// tracked steps; an untracked selection renders its own step only.
	steps, pred := []int{sel.Step}, sel.Expr
	if sel.Track != nil && sel.Track.Expr != "" {
		steps, pred = sel.Track.Steps, sel.Track.Expr
	}
	body := SessionViewsBody{
		Session: sid, Name: sel.Name, Dataset: d.name,
		Step: sel.Step, Backend: sel.Backend, Expr: pred,
		Vars: vars, Steps: steps, Temporal: sel.Track != nil,
	}
	var canvas *render.Canvas
	exec := func(ctx context.Context) (*plan.Result, error) {
		// Axis ranges come from the step's variable metadata so histogram
		// edges and plot axes agree exactly.
		axes := make([]pcoords.Axis, len(vars))
		for i, v := range vars {
			lo, hi, err := st.MinMax(ctx, v)
			if err != nil {
				return nil, err
			}
			if !(hi > lo) {
				hi = lo + 1
			}
			axes[i] = pcoords.Axis{Var: v, Min: lo, Max: hi}
		}
		pq := plan.Query{Dataset: d.name, Step: sel.Step, Query: sel.Expr, Backend: selBackend(sel.Backend)}
		if format != "png" {
			pqs := make([]plan.Query, len(axes))
			for i, ax := range axes {
				pqs[i] = pq
				pqs[i].Op, pqs[i].Spec1 = plan.OpHist1D, histogram.NewSpec1D(ax.Var, bins)
				pqs[i].Spec1.Lo, pqs[i].Spec1.Hi = ax.Min, ax.Max
			}
			results, sum, err := s.execPlans(ctx, d, sn, pqs)
			if err != nil {
				return nil, err
			}
			for i, res := range results {
				h := res.Hist1.Dense()
				body.Panels = append(body.Panels, ViewPanel{
					Var: vars[i], Edges: h.Edges, Counts: h.Counts, Total: h.Total(),
				})
			}
			return sum, nil
		}
		plot, err := pcoords.New(axes, pcoords.DefaultOptions())
		if err != nil {
			return nil, errf(http.StatusBadRequest, "%v", err)
		}
		// One plan per (step, adjacent axis pair), step-major.
		pairs := len(axes) - 1
		pqs := make([]plan.Query, 0, len(steps)*pairs)
		pq.Op, pq.Query = plan.OpHist2D, pred
		for _, t := range steps {
			for i := 0; i < pairs; i++ {
				pq.Step, pq.Spec2 = t, histogram.NewSpec2D(axes[i].Var, axes[i+1].Var, bins, bins)
				pq.Spec2.XLo, pq.Spec2.XHi = axes[i].Min, axes[i].Max
				pq.Spec2.YLo, pq.Spec2.YHi = axes[i+1].Min, axes[i+1].Max
				pqs = append(pqs, pq)
			}
		}
		results, sum, err := s.execPlans(ctx, d, sn, pqs)
		if err != nil {
			return nil, err
		}
		for si := range steps {
			hists := make([]*histogram.Hist2D, pairs)
			for i := range hists {
				hists[i] = results[si*pairs+i].Hist2.Dense()
			}
			layer := &pcoords.HistLayer{Hists: hists, Color: layerPalette[si%len(layerPalette)]}
			if err := plot.AddHistLayer(layer); err != nil {
				return nil, err
			}
		}
		canvas, err = plot.Render()
		return sum, err
	}
	return &op{class: ClassSweep, exec: exec, body: func(_ *plan.Result, m ResponseMeta) any {
		if canvas != nil {
			return pngBody{canvas}
		}
		body.ResponseMeta = m
		return body
	}}, nil
}
