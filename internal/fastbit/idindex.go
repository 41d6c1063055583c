package fastbit

import (
	"sort"
)

// IDIndex is an inverted index over a particle-identifier column: the
// (id, row) pairs sorted by id. It answers `ID IN (id1, …, idn)` queries
// in O(n log N + hits) time, which reproduces the paper's observation that
// FastBit's worst-case cost for identifier queries is proportional to the
// number of records found (Section V-B), versus the custom scan's
// O(N log n).
type IDIndex struct {
	ids []int64  // sorted
	pos []uint64 // row of ids[i]
	n   uint64   // total records
}

// BuildIDIndex constructs the index from a timestep's identifier column.
func BuildIDIndex(ids []int64) *IDIndex {
	x := &IDIndex{
		ids: append([]int64(nil), ids...),
		pos: make([]uint64, len(ids)),
		n:   uint64(len(ids)),
	}
	for i := range x.pos {
		x.pos[i] = uint64(i)
	}
	sort.Sort(byID{x})
	return x
}

type byID struct{ x *IDIndex }

func (s byID) Len() int { return len(s.x.ids) }
func (s byID) Less(i, j int) bool {
	if s.x.ids[i] != s.x.ids[j] {
		return s.x.ids[i] < s.x.ids[j]
	}
	return s.x.pos[i] < s.x.pos[j]
}
func (s byID) Swap(i, j int) {
	s.x.ids[i], s.x.ids[j] = s.x.ids[j], s.x.ids[i]
	s.x.pos[i], s.x.pos[j] = s.x.pos[j], s.x.pos[i]
}

// Len returns the number of indexed records.
func (x *IDIndex) Len() uint64 { return x.n }

// SizeBytes returns the approximate in-memory size of the index.
func (x *IDIndex) SizeBytes() int { return 16 * len(x.ids) }

// LookupOne returns the rows holding the given identifier.
func (x *IDIndex) LookupOne(id int64) []uint64 {
	i := sort.Search(len(x.ids), func(k int) bool { return x.ids[k] >= id })
	var out []uint64
	for ; i < len(x.ids) && x.ids[i] == id; i++ {
		out = append(out, x.pos[i])
	}
	return out
}

// Lookup returns the sorted row positions whose identifier appears in the
// search set. Small sets use one binary search per identifier
// (O(n log N + hits)); sets comparable to the index size switch to a
// merge join over the sorted identifier array (O(n log n + N)).
func (x *IDIndex) Lookup(set []int64) []uint64 {
	var out []uint64
	if uint64(len(set))*16 < x.n {
		for _, id := range set {
			out = append(out, x.LookupOne(id)...)
		}
	} else {
		sorted := append([]int64(nil), set...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		si := 0
		for i, id := range x.ids {
			for si < len(sorted) && sorted[si] < id {
				si++
			}
			if si == len(sorted) {
				break
			}
			if sorted[si] == id {
				out = append(out, x.pos[i])
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	// Dedup in case the search set contains duplicates.
	dedup := out[:0]
	for i, p := range out {
		if i == 0 || p != out[i-1] {
			dedup = append(dedup, p)
		}
	}
	return dedup
}
