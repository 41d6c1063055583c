package histogram

import (
	"context"
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// GridPoolBytes bounds the count grids the pool keeps between uses. A
// grid returned past it is dropped for the collector, so what the pool
// holds cannot grow with concurrency × grid size.
const GridPoolBytes = 32 << 20

// gridClasses is the number of grid size classes: class k holds grids of
// 2^k cells, the largest a MaxBins2D² grid.
const gridClasses = 2*12 + 1

// pool keeps all-zero uint32 count grids for reuse, in power-of-two size
// classes; a sparse binning takes its cell indices and their sort scratch
// from it too. Every grid in it is all-zero, and so is every grid it
// hands out: whoever takes one zeroes what it wrote before it puts the
// grid back, whatever happened in between. Pooled grids never leave this
// package, so a grid nobody returns is garbage, not an alias. (A count
// that needs uint64 cells — 2³² pairs or more — takes a fresh grid.)
var pool struct {
	sync.Mutex
	bytes int // held in free
	free  [gridClasses][][]uint32
}

// getGrid returns an all-zero grid of n ≥ 1 cells, from the pool or new.
func getGrid(n int) []uint32 {
	k := bits.Len(uint(n - 1))
	pool.Lock()
	defer pool.Unlock()
	free := &pool.free[k]
	m := len(*free)
	if m == 0 {
		return make([]uint32, n, 1<<k)
	}
	g := (*free)[m-1]
	(*free)[m-1] = nil
	*free = (*free)[:m-1]
	pool.bytes -= 4 * cap(g)
	return g[:n]
}

// putGrid hands back a grid getGrid returned, which must be all-zero
// again. Past GridPoolBytes it is dropped.
func putGrid(g []uint32) {
	pool.Lock()
	defer pool.Unlock()
	if pool.bytes+4*cap(g) > GridPoolBytes {
		return
	}
	pool.bytes += 4 * cap(g)
	k := bits.Len(uint(cap(g) - 1))
	pool.free[k] = append(pool.free[k], g[:cap(g)])
}

// binGrid adds every (x, y) pair inside the locators' edges into the
// grid's cell iy*nx+ix, locating each coordinate by the inlined Guess and
// by Bin only on a miss, and checking ctx every checkpointRows pairs. On
// cancellation it clears the grid before returning the error, so the
// grid is all-zero again either way it ends badly.
func binGrid[T uint32 | uint64](ctx context.Context, g []T, lx, ly *Locator, xs, ys []float64) error {
	nx := lx.Bins()
	for i := range xs {
		if i&(checkpointRows-1) == 0 {
			if err := ctx.Err(); err != nil {
				clear(g)
				return err
			}
		}
		x, y := xs[i], ys[i]
		ix := lx.Guess(x)
		if ix < 0 {
			if ix = lx.Bin(x); ix < 0 {
				continue
			}
		}
		iy := ly.Guess(y)
		if iy < 0 {
			if iy = ly.Bin(y); iy < 0 {
				continue
			}
		}
		g[iy*nx+ix]++
	}
	return nil
}

// zeroBlock is how many cells the grid walks test at once: a block whose
// cells OR to zero is passed over whole.
const zeroBlock = 8

// appendGrid appends the compact count encoding of the grid's counts and
// returns their sum too; with zero set it zeroes every cell it encodes, so
// the grid is all-zero when it returns. A block of zeroBlock cells that
// ORs to zero is passed over whole.
func appendGrid[T uint32 | uint64](dst []byte, g []T, zero bool) ([]byte, uint64) {
	dst = binary.AppendUvarint(dst, uint64(len(g)))
	prev, total := -1, uint64(0)
	for base := 0; base < len(g); base += zeroBlock {
		b := g[base:min(base+zeroBlock, len(g))]
		if len(b) == zeroBlock && b[0]|b[1]|b[2]|b[3]|b[4]|b[5]|b[6]|b[7] == 0 {
			continue
		}
		for j, c := range b {
			if c == 0 {
				continue
			}
			if zero {
				b[j] = 0
			}
			if cap(dst)-len(dst) < 2*binary.MaxVarintLen64 {
				dst = slices.Grow(dst, cap(dst))
			}
			i := base + j
			dst = binary.AppendUvarint(dst, uint64(i-prev))
			dst = binary.AppendUvarint(dst, uint64(c))
			prev = i
			total += uint64(c)
		}
	}
	return append(dst, 0), total
}

// zerosJSON is a run of zero counts as JSON writes them, copied rather
// than formatted.
var zerosJSON = strings.Repeat("0,", 512)

// appendZerosJSON appends n zero counts, each with its comma.
func appendZerosJSON(dst []byte, n int) []byte {
	for ; n > 0; n -= len(zerosJSON) / 2 {
		dst = append(dst, zerosJSON[:2*min(n, len(zerosJSON)/2)]...)
	}
	return dst
}

// appendGridJSON appends the grid's counts as encoding/json writes a
// non-nil []uint64; with zero set it zeroes every cell it writes, so the
// grid is all-zero when it returns. Runs of all-zero blocks of zeroBlock
// cells are copied from zerosJSON at once.
func appendGridJSON[T uint32 | uint64](dst []byte, g []T, zero bool) []byte {
	dst = append(dst, '[')
	run, i := 0, 0 // run: cells of all-zero blocks not written yet
	for ; i+zeroBlock <= len(g); i += zeroBlock {
		b := (*[zeroBlock]T)(g[i:])
		if b[0]|b[1]|b[2]|b[3]|b[4]|b[5]|b[6]|b[7] == 0 {
			run += zeroBlock
			continue
		}
		dst, run = appendZerosJSON(dst, run), 0
		for _, c := range b {
			dst = appendCountJSON(dst, uint64(c))
		}
		if zero {
			*b = [zeroBlock]T{}
		}
	}
	dst = appendZerosJSON(dst, run)
	for ; i < len(g); i++ {
		dst = appendCountJSON(dst, uint64(g[i]))
		if zero {
			g[i] = 0
		}
	}
	if len(g) == 0 {
		return append(dst, ']')
	}
	dst[len(dst)-1] = ']'
	return dst
}

// appendCountJSON appends a count and its comma; below 10 it is one digit
// and skips strconv.
func appendCountJSON(dst []byte, c uint64) []byte {
	if c < 10 {
		return append(dst, byte('0'+c), ',')
	}
	return append(strconv.AppendUint(dst, c, 10), ',')
}

// appendEncodingJSON appends the counts of one compact encoding as
// encoding/json writes them, straight from its bytes: each gap's zeros
// copied, each count formatted. For a lone encoding this beats expanding
// it into a grid and walking that (BenchmarkCountsJSON).
func appendEncodingJSON(dst []byte, enc []byte) []byte {
	n, k := binary.Uvarint(enc)
	enc = enc[k:]
	dst = append(dst, '[')
	written := uint64(0) // cells
	for {
		var gap, c uint64
		if len(enc) >= 2 && enc[0]|enc[1] < 0x80 { // a one-byte gap and count, the common cell
			gap, c, enc = uint64(enc[0]), uint64(enc[1]), enc[2:]
		} else {
			var k, m int
			gap, k = binary.Uvarint(enc)
			c, m = binary.Uvarint(enc[k:])
			enc = enc[k+m:]
		}
		if gap == 0 {
			break
		}
		if z := int(gap - 1); z <= len(zerosJSON)/2 {
			dst = append(dst, zerosJSON[:2*z]...)
		} else {
			dst = appendZerosJSON(dst, z)
		}
		dst = appendCountJSON(dst, c)
		written += gap
	}
	dst = appendZerosJSON(dst, int(n-written))
	dst[len(dst)-1] = ']'
	return dst
}

// expand adds the counts of every validated encoding into g, which has
// their cell count. It reports false, with g cleared, when a sum does not
// fit in a T; uint64 sums wrap, as dense counts do.
func expand[T uint32 | uint64](g []T, cells []encoding) bool {
	narrow := uint64(^T(0)) < math.MaxUint64
	for _, e := range cells {
		enc := e.b
		_, n := binary.Uvarint(enc)
		enc = enc[n:]
		for i := -1; ; {
			gap, n := binary.Uvarint(enc)
			if gap == 0 {
				break
			}
			c, m := binary.Uvarint(enc[n:])
			enc = enc[n+m:]
			i += int(gap)
			v := g[i] + T(c)
			if narrow && (c > uint64(^T(0)) || v < g[i]) {
				clear(g)
				return false
			}
			g[i] = v
		}
	}
	return true
}

// expandSum returns the sum of the encodings of a grid of n cells in a
// pooled uint32 grid, or, when a sum outgrows a uint32 cell, in a fresh
// uint64 one.
func expandSum(n int, cells []encoding) ([]uint32, []uint64) {
	g := getGrid(n)
	if expand(g, cells) {
		return g, nil
	}
	putGrid(g)
	wide := make([]uint64, n)
	expand(wide, cells)
	return nil, wide
}

// appendSumCells appends the compact count encoding of the encodings'
// sum, a grid of n cells, expanded once.
func appendSumCells(dst []byte, n int, cells []encoding) []byte {
	g, wide := expandSum(n, cells)
	if g == nil {
		dst, _ = appendGrid(dst, wide, false)
		return dst
	}
	dst, _ = appendGrid(dst, g, true)
	putGrid(g)
	return dst
}

// appendSumJSON is appendSumCells for the counts as JSON.
func appendSumJSON(dst []byte, n int, cells []encoding) []byte {
	g, wide := expandSum(n, cells)
	if g == nil {
		return appendGridJSON(dst, wide, false)
	}
	dst = appendGridJSON(dst, g, true)
	putGrid(g)
	return dst
}
