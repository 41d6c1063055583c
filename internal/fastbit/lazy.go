package fastbit

import (
	"encoding/binary"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// LazyStep is an index file opened for on-demand section loading: the
// directory is read at open time (a few hundred bytes), and each column's
// index — or the identifier index — is read from disk only when a query
// first touches it, then cached. This mirrors FastBit's behaviour of
// reading only the bitmaps a query requires, and it is what keeps
// identifier-tracking queries from paying for the momentum and position
// indexes they never use.
//
// A step given a resident row window (KeepRows) caches each column cut
// to that window's bitmap groups: a shard keeps the index of the rows it
// serves. A lookup for rows outside the window decodes the column from
// the file and caches nothing.
type LazyStep struct {
	path string
	f    *os.File
	dir  *directory

	mu      sync.Mutex
	cols    map[string]*Index
	idIdx   *IDIndex
	ioBytes atomic.Uint64
	blocks  map[uint64][]byte // 4 KiB block cache for point reads

	// keepLo and keepHi are the resident row window; keepHi == 0 while
	// there is none, and the cache holds whole-step columns.
	keepLo, keepHi uint64
}

// blockSize is the granularity of cached point reads; binary searches over
// the on-disk identifier array share the upper-level blocks, so caching
// them collapses the syscall count from O(n log N) to roughly O(n).
const blockSize = 4096

// OpenLazy opens an index file for on-demand loading. The directory is
// validated against the file size so truncated index files (e.g. from a
// crash mid-write under a non-atomic writer) are rejected here, not when
// a query first touches the missing tail.
func OpenLazy(path string) (*LazyStep, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("fastbit: %w", err)
	}
	d, err := readDirectory(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("fastbit: stat index: %w", err)
	}
	if err := d.validate(st.Size()); err != nil {
		f.Close()
		return nil, err
	}
	return &LazyStep{path: path, f: f, dir: d, cols: map[string]*Index{}}, nil
}

// Close releases the underlying file.
func (ls *LazyStep) Close() error { return ls.f.Close() }

// N returns the number of records the index covers.
func (ls *LazyStep) N() uint64 { return ls.dir.n }

// IDVar returns the identifier variable name ("" when absent).
func (ls *LazyStep) IDVar() string { return ls.dir.idVar }

// HasColumn reports whether a range index exists for the variable.
func (ls *LazyStep) HasColumn(name string) bool {
	_, ok := ls.dir.cols[name]
	return ok
}

// Columns lists the indexed variables.
func (ls *LazyStep) Columns() []string {
	return append([]string(nil), ls.dir.order...)
}

// IndexBytesRead returns the cumulative bytes of index data loaded, for
// I/O accounting.
func (ls *LazyStep) IndexBytesRead() uint64 { return ls.ioBytes.Load() }

// Column loads (or returns the cached) range index for one variable,
// over the whole step.
func (ls *LazyStep) Column(name string) (*Index, error) {
	return ls.ColumnRows(name, 0, ls.dir.n, nil)
}

// ColumnRows is Column for reading rows [lo, hi), charging a load's
// section bytes and the load itself to c (nil-safe): the cached index
// when its bitmaps hold them, else a load. A load inside the resident
// window (the whole step while there is none) is cut to that window and
// cached; one outside it decodes the whole column and keeps nothing, so
// it is charged on every lookup. An empty [lo, hi) reads no rows — only
// the bounds and granules, which every cut keeps whole — so any cached
// index answers it.
func (ls *LazyStep) ColumnRows(name string, lo, hi uint64, c *obs.Cost) (*Index, error) {
	ls.mu.Lock()
	if ix, ok := ls.cols[name]; ok && (lo >= hi || ix.covers(lo, hi)) {
		ls.mu.Unlock()
		return ix, nil
	}
	wlo, whi := ls.keepLo, ls.keepHi
	if whi == 0 { // no window: the whole step
		whi = ls.dir.n
	}
	if lo < hi && (lo < wlo || hi > whi) {
		ls.mu.Unlock()
		return ls.load(name, 0, ls.dir.n, c)
	}
	// Under the lock, so concurrent lookups load a column once.
	defer ls.mu.Unlock()
	ix, err := ls.load(name, wlo, whi, c)
	if err == nil {
		ls.cols[name] = ix
	}
	return ix, err
}

// load reads one column's section and decodes it cut to rows [lo, hi),
// charging the bytes read and the load to c.
func (ls *LazyStep) load(name string, lo, hi uint64, c *obs.Cost) (*Index, error) {
	sec, ok := ls.dir.cols[name]
	if !ok {
		return nil, fmt.Errorf("fastbit: no index for variable %q in %s", name, ls.path)
	}
	start := time.Now()
	blob, err := ls.readSection(sec)
	if err != nil {
		return nil, err
	}
	ix, err := decodeColumn(name, ls.dir.n, blob)
	if err != nil {
		return nil, err
	}
	if lo > 0 || hi < ls.dir.n {
		ix = ix.cut(lo, hi)
	}
	metricIndexLoads.Inc()
	metricIndexLoadSeconds.ObserveSince(start)
	c.AddIndexBytes(uint64(len(blob)))
	c.AddIndexLoads(1)
	return ix, nil
}

// KeepRows makes rows [lo, hi) the step's resident window: every cached
// column is cut to it, and so is every column loaded from then on. The
// first window is the one kept; a later call, an empty window and one of
// the whole step change nothing.
func (ls *LazyStep) KeepRows(lo, hi uint64) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.keepHi != 0 || lo >= hi || lo == 0 && hi >= ls.dir.n {
		return
	}
	ls.keepLo, ls.keepHi = lo, min(hi, ls.dir.n)
	for name, ix := range ls.cols {
		ls.cols[name] = ix.cut(lo, ls.keepHi)
	}
}

// IndexBytes returns the in-memory size of the cached column indexes.
func (ls *LazyStep) IndexBytes() int {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	n := 0
	for _, ix := range ls.cols {
		n += ix.SizeBytes()
	}
	return n
}

// IDIndex loads (or returns the cached) identifier index.
func (ls *LazyStep) IDIndex() (*IDIndex, error) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.idIdx != nil {
		return ls.idIdx, nil
	}
	if !ls.dir.hasID {
		return nil, fmt.Errorf("fastbit: %s has no identifier index", ls.path)
	}
	start := time.Now()
	blob, err := ls.readSection(ls.dir.idSec)
	if err != nil {
		return nil, err
	}
	id, err := decodeIDIndex(ls.dir.n, blob)
	if err != nil {
		return nil, err
	}
	metricIndexLoads.Inc()
	metricIndexLoadSeconds.ObserveSince(start)
	ls.idIdx = id
	return id, nil
}

// IDLookup returns the sorted row positions of the identifiers in set.
// Small sets binary-search the on-disk sorted identifier array directly,
// reading only O(n log N) eight-byte values instead of the whole section
// — the FastBit property that makes particle tracking cost proportional
// to the hits found, not the data size. Large sets (or a previously
// cached index) fall back to the in-memory index.
func (ls *LazyStep) IDLookup(set []int64) ([]uint64, error) {
	ls.mu.Lock()
	cached := ls.idIdx
	ls.mu.Unlock()
	if cached != nil {
		return cached.Lookup(set), nil
	}
	if !ls.dir.hasID {
		return nil, fmt.Errorf("fastbit: %s has no identifier index", ls.path)
	}
	// Heuristic: when the query set is a large fraction of the index,
	// loading it once is cheaper than many scattered reads.
	if uint64(len(set))*64 >= ls.dir.n {
		idIdx, err := ls.IDIndex()
		if err != nil {
			return nil, err
		}
		return idIdx.Lookup(set), nil
	}
	// Sorting the query set maximises block-cache locality in the leaf
	// levels of the binary searches.
	sorted := append([]int64(nil), set...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	out := make([]uint64, 0, len(sorted))
	for i, id := range sorted {
		if i > 0 && id == sorted[i-1] {
			continue
		}
		pos, err := ls.idSearchDisk(id)
		if err != nil {
			return nil, err
		}
		out = append(out, pos...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	dedup := out[:0]
	for i, p := range out {
		if i == 0 || p != out[i-1] {
			dedup = append(dedup, p)
		}
	}
	return dedup, nil
}

// idSearchDisk binary-searches the on-disk sorted identifier array for
// one identifier and gathers the row positions of every occurrence.
func (ls *LazyStep) idSearchDisk(id int64) ([]uint64, error) {
	sec := ls.dir.idSec
	cnt, err := ls.u64At(sec.offset)
	if err != nil {
		return nil, err
	}
	if sec.size < 8 || cnt > (sec.size-8)/16 {
		return nil, fmt.Errorf("fastbit: id index section inconsistent")
	}
	idsOff := sec.offset + 8
	posOff := idsOff + 8*cnt
	// Find the first index with ids[i] >= id.
	lo, hi := uint64(0), cnt
	var searchErr error
	for lo < hi {
		mid := (lo + hi) / 2
		v, err := ls.u64At(idsOff + 8*mid)
		if err != nil {
			searchErr = err
			break
		}
		if int64(v) < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if searchErr != nil {
		return nil, searchErr
	}
	var out []uint64
	for i := lo; i < cnt; i++ {
		v, err := ls.u64At(idsOff + 8*i)
		if err != nil {
			return nil, err
		}
		if int64(v) != id {
			break
		}
		p, err := ls.u64At(posOff + 8*i)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// u64At reads one little-endian u64 at an absolute file offset through
// the block cache.
func (ls *LazyStep) u64At(off uint64) (uint64, error) {
	base := off &^ (blockSize - 1)
	ls.mu.Lock()
	if ls.blocks == nil {
		ls.blocks = map[uint64][]byte{}
	}
	blk, ok := ls.blocks[base]
	ls.mu.Unlock()
	if !ok {
		buf := make([]byte, blockSize)
		n, err := ls.f.ReadAt(buf, int64(base))
		if err != nil && n == 0 {
			return 0, fmt.Errorf("fastbit: read index: %w", err)
		}
		blk = buf[:n]
		ls.mu.Lock()
		ls.blocks[base] = blk
		ls.mu.Unlock()
		ls.ioBytes.Add(uint64(n))
	}
	rel := off - base
	if rel+8 > uint64(len(blk)) {
		// Value straddles a block boundary or the file end; fall back to
		// a direct read.
		var b [8]byte
		if _, err := ls.f.ReadAt(b[:], int64(off)); err != nil {
			return 0, fmt.Errorf("fastbit: read index: %w", err)
		}
		ls.ioBytes.Add(8)
		return binary.LittleEndian.Uint64(b[:]), nil
	}
	return binary.LittleEndian.Uint64(blk[rel:]), nil
}

func (ls *LazyStep) readSection(sec section) ([]byte, error) {
	st, err := ls.f.Stat()
	if err != nil {
		return nil, fmt.Errorf("fastbit: stat index: %w", err)
	}
	if !sec.within(uint64(st.Size())) {
		return nil, fmt.Errorf("fastbit: index section [%d,+%d) beyond file size %d",
			sec.offset, sec.size, st.Size())
	}
	blob := make([]byte, sec.size)
	if _, err := ls.f.ReadAt(blob, int64(sec.offset)); err != nil {
		return nil, fmt.Errorf("fastbit: read index section: %w", err)
	}
	if err := sec.verify(ls.path, blob); err != nil {
		return nil, err
	}
	ls.ioBytes.Add(sec.size)
	return blob, nil
}

// Evaluator returns a query evaluator that loads indexes on demand.
func (ls *LazyStep) Evaluator(raw RawReader) *Evaluator {
	return ls.CostEvaluator(raw, nil)
}

// CostEvaluator is Evaluator with per-query cost attribution: index
// loads triggered by the returned evaluator are charged to c, and the
// evaluator itself charges its bitmap and candidate-check work there.
func (ls *LazyStep) CostEvaluator(raw RawReader, c *obs.Cost) *Evaluator {
	return &Evaluator{
		N: ls.dir.n,
		LookupIndex: func(name string, lo, hi uint64) (*Index, error) {
			return ls.ColumnRows(name, lo, hi, c)
		},
		IDVar:    ls.dir.idVar,
		LookupID: ls.IDIndex,
		Raw:      raw,
		Cost:     c,
	}
}
