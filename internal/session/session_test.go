package session

import (
	"errors"
	"testing"
	"time"

	"repro/internal/bitmap"
)

// fakeClock is an injectable test clock.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newClock() *fakeClock                   { return &fakeClock{t: time.Unix(1700000000, 0)} }

func bits(n uint64, pos ...uint64) *bitmap.Vector {
	v, err := bitmap.FromPositions(n, pos)
	if err != nil {
		panic(err)
	}
	return v
}

func sel(name string, n uint64, pos ...uint64) Selection {
	b := bits(n, pos...)
	return Selection{Name: name, Dataset: "d", Step: 0, Expr: "x > 1",
		Bits: b, Count: b.Count(), Rows: n}
}

func TestPutGetRoundTrip(t *testing.T) {
	c := newClock()
	m := NewManager(Config{Now: c.now})
	want := sel("brush", 100, 3, 7, 9)
	if err := m.Put("s1", want); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, ok := m.Selection("s1", "brush")
	if !ok {
		t.Fatal("selection missing after Put")
	}
	if got.Expr != want.Expr || got.Count != 3 || got.Rows != 100 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if !got.Bits.Equal(want.Bits) {
		t.Fatal("bitmap changed through store")
	}
	st := m.Stats()
	if st.Active != 1 || st.Selections != 1 || st.Bytes <= 0 {
		t.Fatalf("stats after one Put: %+v", st)
	}
	if st.Bytes != want.SizeBytes() {
		t.Fatalf("accounted bytes %d != selection SizeBytes %d", st.Bytes, want.SizeBytes())
	}
}

func TestTTLEviction(t *testing.T) {
	c := newClock()
	m := NewManager(Config{TTL: time.Minute, Now: c.now})
	if err := m.Put("old", sel("a", 10, 1)); err != nil {
		t.Fatal(err)
	}
	c.advance(30 * time.Second)
	if err := m.Put("young", sel("a", 10, 2)); err != nil {
		t.Fatal(err)
	}
	c.advance(45 * time.Second) // old idle 75s > TTL; young idle 45s
	st := m.Stats()
	if st.Active != 1 || st.TTLEvictions != 1 {
		t.Fatalf("expected exactly the idle session evicted, got %+v", st)
	}
	if _, ok := m.Get("old"); ok {
		t.Fatal("idle session survived its TTL")
	}
	if _, ok := m.Get("young"); !ok {
		t.Fatal("fresh session was evicted")
	}
}

func TestCountEvictionLRU(t *testing.T) {
	c := newClock()
	m := NewManager(Config{MaxSessions: 2, Now: c.now})
	for _, id := range []string{"a", "b", "c"} {
		c.advance(time.Second)
		if err := m.Put(id, sel("s", 10, 1)); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	if st.Active != 2 || st.CountEvictions != 1 {
		t.Fatalf("count bound not enforced: %+v", st)
	}
	if _, ok := m.Get("a"); ok {
		t.Fatal("least recently used session survived count eviction")
	}
	for _, id := range []string{"b", "c"} {
		if _, ok := m.Get(id); !ok {
			t.Fatalf("recently used session %q evicted", id)
		}
	}
}

func TestBytesEvictionLRU(t *testing.T) {
	c := newClock()
	one := sel("s", 1000, 1, 500, 999)
	per := one.SizeBytes()
	m := NewManager(Config{MaxBytes: 2*per + per/2, Now: c.now})
	for _, id := range []string{"a", "b", "c"} {
		c.advance(time.Second)
		if err := m.Put(id, one); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	if st.Active != 2 || st.BytesEvictions != 1 {
		t.Fatalf("byte bound not enforced: %+v", st)
	}
	if st.Bytes > 2*per+per/2 {
		t.Fatalf("stored bytes %d exceed bound", st.Bytes)
	}
	if _, ok := m.Get("a"); ok {
		t.Fatal("LRU session survived byte eviction")
	}
}

func TestPutTooLargeRejected(t *testing.T) {
	m := NewManager(Config{MaxBytes: 16, Now: newClock().now})
	err := m.Put("s", sel("big", 1000, 1, 2, 3, 900))
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("expected ErrTooLarge, got %v", err)
	}
	if st := m.Stats(); st.Active != 0 || st.Bytes != 0 {
		t.Fatalf("rejected selection leaked into the store: %+v", st)
	}
}

func TestPutReplaceAccountsBytes(t *testing.T) {
	c := newClock()
	m := NewManager(Config{Now: c.now})
	if err := m.Put("s", sel("a", 100, 1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	small := sel("a", 100, 1)
	if err := m.Put("s", small); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Bytes != small.SizeBytes() || st.Selections != 1 {
		t.Fatalf("replace did not re-account bytes: %+v", st)
	}
}

func TestDelete(t *testing.T) {
	m := NewManager(Config{Now: newClock().now})
	if err := m.Put("s", sel("a", 10, 1)); err != nil {
		t.Fatal(err)
	}
	if !m.Delete("s") {
		t.Fatal("Delete reported missing for a live session")
	}
	if m.Delete("s") {
		t.Fatal("Delete reported success twice")
	}
	if st := m.Stats(); st.Active != 0 || st.Bytes != 0 {
		t.Fatalf("delete left residue: %+v", st)
	}
}

func TestCombineAlgebra(t *testing.T) {
	const n = 64
	prev := bits(n, 1, 2, 3, 10, 20)
	delta := bits(n, 2, 3, 4, 30)
	cases := []struct {
		mode string
		want []uint64
	}{
		{"and", []uint64{2, 3}},
		{"or", []uint64{1, 2, 3, 4, 10, 20, 30}},
		{"andnot", []uint64{1, 10, 20}},
	}
	for _, tc := range cases {
		got, err := Combine(prev, delta, tc.mode)
		if err != nil {
			t.Fatalf("%s: %v", tc.mode, err)
		}
		if !got.Equal(bits(n, tc.want...)) {
			t.Fatalf("%s: got %v want %v", tc.mode, got.Positions(), tc.want)
		}
	}
	if _, err := Combine(prev, delta, "xor"); err == nil {
		t.Fatal("unknown refine mode accepted")
	}
}

func TestCountersAndList(t *testing.T) {
	c := newClock()
	m := NewManager(Config{Now: c.now})
	m.NoteReuse()
	m.NoteReuse()
	m.NoteScratch()
	m.NotePartialReject()
	if err := m.Put("s", sel("a", 10, 1)); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.RefineReuse != 2 || st.RefineScratch != 1 || st.PartialRejects != 1 || st.Creates != 1 {
		t.Fatalf("counters: %+v", st)
	}
	ls := m.List()
	if len(ls) != 1 || ls[0].ID != "s" || len(ls[0].Selections) != 1 {
		t.Fatalf("List: %+v", ls)
	}
	if ls[0].Selections[0].SizeBytes <= 0 {
		t.Fatal("listing lost selection size")
	}
}

func TestCreateAssignsUniqueIDs(t *testing.T) {
	m := NewManager(Config{Now: newClock().now})
	a, b := m.Create(), m.Create()
	if a.ID == "" || a.ID == b.ID {
		t.Fatalf("Create IDs not unique: %q %q", a.ID, b.ID)
	}
	if st := m.Stats(); st.Active != 2 || st.Creates != 2 {
		t.Fatalf("stats after Create: %+v", st)
	}
}

// TestConfigDefaults pins the bounds a zero Config takes — the ones every
// qserve runs with, since no flag sets them.
func TestConfigDefaults(t *testing.T) {
	d := Config{}.withDefaults()
	if d.TTL != 15*time.Minute || d.MaxSessions != 64 || d.MaxBytes != 64<<20 {
		t.Fatalf("zero-value defaults: TTL %v, %d sessions, %d bytes", d.TTL, d.MaxSessions, d.MaxBytes)
	}
}
