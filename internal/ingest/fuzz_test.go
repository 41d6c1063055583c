package ingest

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"runtime"
	"testing"
)

// FuzzManifest: the one catalog decoder, which Open and ReadManifest
// share, returns an error or a manifest that passes its checks (asserted
// here independently: the format, and entry i is step i) and survives
// encode → decode unchanged. It never panics, and it allocates in
// proportion to its input.
func FuzzManifest(f *testing.F) {
	cat, err := Create(f.TempDir(), "fuzz", testVars, "id")
	if err != nil {
		f.Fatal(err)
	}
	w := NewWriter(cat, 64)
	for step := 0; step < 3; step++ {
		if _, _, err := w.AppendStep(mkColumns(step, 5)); err != nil {
			f.Fatal(err)
		}
	}
	if _, err := cat.MarkIndexed(1, 100); err != nil {
		f.Fatal(err)
	}
	good, err := os.ReadFile(catalogPath(cat.Dir()))
	if err != nil {
		f.Fatal(err)
	}
	man := cat.Snapshot()
	swapped := man
	swapped.Steps = append([]StepEntry(nil), man.Steps...)
	swapped.Steps[0], swapped.Steps[2] = swapped.Steps[2], swapped.Steps[0]
	format99 := man
	format99.Format = 99
	refused := [][]byte{good[:len(good)/2], mustJSON(f, swapped), mustJSON(f, format99),
		[]byte(`{"format":1,"generation":18446744073709551616}`)}
	for _, seed := range refused {
		if _, err := decodeManifest(seed); err == nil {
			f.Fatalf("catalog accepted: %s", seed)
		}
		f.Add(seed)
	}
	f.Add(good)
	f.Add([]byte(`{"format":1,"generation":18446744073709551615,"steps":[{"step":0,"gen":18446744073709551615}]}`))
	f.Add([]byte(`{"format":1,"steps":[` + string(bytes.Repeat([]byte(`{},`), 1000)) + `{}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		if alloc := decodeAlloc(data); alloc > uint64(64*len(data)+16384) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
		}
		man, err := decodeManifest(data)
		if err != nil {
			return
		}
		if man.Format != catalogFormat {
			t.Fatalf("accepted format %d", man.Format)
		}
		for i, e := range man.Steps {
			if e.Step != i {
				t.Fatalf("accepted step %d at position %d", e.Step, i)
			}
		}
		again, err := decodeManifest(mustJSON(t, man))
		if err != nil || !reflect.DeepEqual(again, man) {
			t.Fatalf("round trip: %+v became %+v (%v)", man, again, err)
		}
	})
}

func mustJSON(t testing.TB, man Manifest) []byte {
	t.Helper()
	buf, err := json.Marshal(&man)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// decodeAlloc returns the fewest bytes decodeManifest allocated on data
// over three runs, so a concurrent allocation cannot inflate it.
func decodeAlloc(data []byte) uint64 {
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		decodeManifest(data) //nolint:errcheck // measuring allocation only
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}
