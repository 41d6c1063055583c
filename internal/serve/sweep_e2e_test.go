// End-to-end identity properties for multi-step operations: a sweep or a
// track is one batch of per-step plans through the one planner, so its
// per-step answers must equal the single-step endpoints' and must not
// depend on how the fleet is split.
package serve

import (
	"fmt"
	"net/http/httptest"
	"net/url"
	"reflect"
	"testing"
)

// TestSweepIdentity: for every spec shape the planner routes differently ×
// both backends × shard splits {1,2,3}, /v1/sweep2d's per-step totals equal
// the per-step /v1/hist2d totals on the same fleet, and both equal the
// one-process answer.
func TestSweepIdentity(t *testing.T) {
	cond := "&q=" + url.QueryEscape("px > 0.0003")
	ranged := "&xlo=-1e12&xhi=1e12&ylo=-1e12&yhi=1e12"
	specs := []struct{ name, params string }{
		{"conditional-unranged", cond}, // two-phase min/max on a fleet
		{"explicit-range", cond + ranged},
		{"unconditional", ""},                    // min/max phase, then the scatter
		{"adaptive", cond + "&binning=adaptive"}, // min/max, fine and final phases
	}
	_, base := testServer(t, Config{}) // the one-process answer
	for _, n := range []int{1, 2, 3} {
		_, fts := frontendServer(t, startShardFleet(t, n, nil))
		for _, backend := range []string{"fastbit", "scan"} {
			for _, sp := range specs {
				name := fmt.Sprintf("shards=%d/%s/%s", n, backend, sp.name)
				params := "x=x&y=px&xbins=12&ybins=9&backend=" + backend + sp.params
				var want, got Sweep2DBody
				if code, raw := get(t, base, "/v1/sweep2d?"+params, &want); code != 200 {
					t.Fatalf("%s: baseline sweep: %d %s", name, code, raw)
				}
				if code, raw := get(t, fts, "/v1/sweep2d?"+params, &got); code != 200 {
					t.Fatalf("%s: sweep: %d %s", name, code, raw)
				}
				if got.Partial || !reflect.DeepEqual(got.Steps, want.Steps) ||
					!reflect.DeepEqual(got.Totals, want.Totals) || got.Total != want.Total {
					t.Fatalf("%s: sweep differs from one process:\n got %+v\nwant %+v", name, got, want)
				}
				if want.Total == 0 {
					t.Fatalf("%s: vacuous: baseline sweep total is 0", name)
				}
				for i, step := range got.Steps {
					var h Hist2DBody
					p := fmt.Sprintf("/v1/hist2d?step=%d&%s", step, params)
					if code, raw := get(t, fts, p, &h); code != 200 {
						t.Fatalf("%s: %s: %d %s", name, p, code, raw)
					}
					if h.Total != got.Totals[i] {
						t.Fatalf("%s: step %d: sweep total %d, hist2d total %d", name, step, got.Totals[i], h.Total)
					}
				}
			}
		}
	}
}

// TestTrackSplitIndependent: a tracked ID set's per-step counts are the
// same on one process and on every shard split, for both backends.
func TestTrackSplitIndependent(t *testing.T) {
	track := func(ts *httptest.Server, backend string) SessionTrackBody {
		t.Helper()
		sid := "track-" + backend
		sel := selectPath(sid, 1, "px > 0.05", "backend="+backend)
		if code, raw, _ := sessPost(t, ts, sel, nil); code != 200 {
			t.Fatalf("select: %d %s", code, raw)
		}
		var tr SessionTrackBody
		if code, raw, _ := sessPost(t, ts, "/v1/session/"+sid+"/track", &tr); code != 200 {
			t.Fatalf("track: %d %s", code, raw)
		}
		if !tr.Stored || tr.Partial || tr.IDs == 0 {
			t.Fatalf("track: %+v", tr)
		}
		return tr
	}
	_, base := testServer(t, Config{})
	for _, backend := range []string{"fastbit", "scan"} {
		want := track(base, backend)
		if want.Counts[1] != uint64(want.IDs) {
			t.Fatalf("%s: %d of %d tracked IDs found on their own step", backend, want.Counts[1], want.IDs)
		}
		for _, n := range []int{1, 2, 3} {
			_, fts := frontendServer(t, startShardFleet(t, n, nil))
			got := track(fts, backend)
			if got.IDs != want.IDs || got.Expr != want.Expr || !reflect.DeepEqual(got.Counts, want.Counts) {
				t.Fatalf("shards=%d/%s: track differs from one process:\n got %d ids %v\nwant %d ids %v",
					n, backend, got.IDs, got.Counts, want.IDs, want.Counts)
			}
		}
	}
}
