package bitmap_test

import (
	"fmt"

	"repro/internal/bitmap"
)

func ExampleVector() {
	// Build two sparse bitmaps and combine them the way a bitmap-index
	// query does: decode into an uncompressed set, combine there, and
	// count a bitmap against the set without encoding it.
	a, _ := bitmap.FromPositions(1000, []uint64{3, 500, 999})
	b, _ := bitmap.FromPositions(1000, []uint64{500, 700})

	fmt.Println(bitmap.OrAll([]*bitmap.Vector{a, b}).Count())
	fmt.Println(a.And(b).Positions())

	notB := bitmap.NewBitSet(1000)
	b.OrInto(notB, 0, 1000)
	notB.Invert()
	fmt.Println(a.AndCount(notB)) // a AND NOT b
	// Output:
	// 4
	// [500]
	// 2
}

func ExampleVector_compression() {
	// A run-dominated bitmap of a million bits compresses to a handful of
	// WAH words.
	v := bitmap.New(1 << 20)
	v.AppendRun(false, 1<<19)
	v.AppendRun(true, 1<<19)
	fmt.Println(v.Len(), v.Count(), v.Words() < 10)
	// Output:
	// 1048576 524288 true
}
