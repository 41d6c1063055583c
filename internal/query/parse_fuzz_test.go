package query

import "testing"

// FuzzParse: Parse never panics on any input; whatever it accepts
// re-parses from its own rendering to the same rendering; and Canonical
// stays idempotent through a String/Parse round trip, so a cache key
// survives being written down and read back. The seed corpus is
// testdata/fuzz/FuzzParse.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		e, err := Parse(src)
		if err != nil {
			return
		}
		s := e.String()
		back, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q) = %s, which does not re-parse: %v", src, s, err)
		}
		if got := back.String(); got != s {
			t.Fatalf("Parse(%q): String %s re-parses to %s", src, s, got)
		}
		c := Canonical(e).String()
		cb, err := Parse(c)
		if err != nil {
			t.Fatalf("Parse(%q): canonical %s does not re-parse: %v", src, c, err)
		}
		if got := Canonical(cb).String(); got != c {
			t.Fatalf("Parse(%q): canonical %s re-canonicalizes to %s", src, c, got)
		}
	})
}
