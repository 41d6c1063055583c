// Package colstore implements a chunked, columnar, single-file storage
// format for one timestep of particle data. It stands in for the HDF5
// files the paper stores simulation output in: named, typed 1-D arrays
// with column-selective and range-selective reads, so the I/O layer can
// fetch only the two variables a 2D histogram needs (paper Section
// III-A1) and only the chunks a candidate check touches.
//
// File layout (all little-endian):
//
//	"LWC1" magic, u32 version
//	column chunks (raw 8-byte values, CRC32-protected per chunk)
//	directory: per-column metadata and chunk table
//	trailer: u64 directory offset, "LWC1" magic
//
// The directory is written last so files are produced in one streaming
// pass; readers locate it through the fixed-size trailer.
package colstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"

	"repro/internal/obs"
)

var magic = [4]byte{'L', 'W', 'C', '1'}

const (
	version = 1
	// DefaultChunkRows is the default number of rows per chunk.
	DefaultChunkRows = 1 << 16
)

// ColumnType identifies the element type of a column.
type ColumnType uint8

// Supported column element types.
const (
	Float64 ColumnType = iota
	Int64
)

func (t ColumnType) String() string {
	switch t {
	case Float64:
		return "float64"
	case Int64:
		return "int64"
	default:
		return fmt.Sprintf("ColumnType(%d)", uint8(t))
	}
}

type chunkInfo struct {
	offset uint64
	rows   uint32
	crc    uint32
}

// ColumnInfo describes one stored column.
type ColumnInfo struct {
	Name string
	Type ColumnType
	Rows uint64

	chunks []chunkInfo
}

// Writer builds a colstore file. Columns are added one at a time; Close
// writes the directory and trailer.
//
// The bytes go to a temp file in the destination directory; Close fsyncs
// it and atomically renames it into place, so a crash — or an error on
// any Add call — can never leave a truncated or column-incomplete step
// file at the published path for Open to trip over. A Writer whose Add
// failed refuses to publish: Close removes the temp file and returns the
// first error instead.
type Writer struct {
	f         *os.File
	path      string // final destination, temp renamed here on Close
	w         *countingWriter
	rows      uint64
	chunkRows int
	cols      []ColumnInfo
	names     map[string]bool
	closed    bool
	err       error // first write/Add failure; poisons Close
}

type countingWriter struct {
	w io.Writer
	n uint64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += uint64(n)
	return n, err
}

// NewWriter creates a colstore file at path for rows records per column.
// chunkRows <= 0 selects DefaultChunkRows. The file appears at path only
// when Close succeeds.
func NewWriter(path string, rows uint64, chunkRows int) (*Writer, error) {
	if chunkRows <= 0 {
		chunkRows = DefaultChunkRows
	}
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return nil, fmt.Errorf("colstore: %w", err)
	}
	if err := f.Chmod(0o644); err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, fmt.Errorf("colstore: %w", err)
	}
	w := &Writer{f: f, path: path, w: &countingWriter{w: f}, rows: rows, chunkRows: chunkRows, names: map[string]bool{}}
	hdr := make([]byte, 8)
	copy(hdr, magic[:])
	binary.LittleEndian.PutUint32(hdr[4:], version)
	if _, err := w.w.Write(hdr); err != nil {
		w.discard()
		return nil, fmt.Errorf("colstore: write header: %w", err)
	}
	return w, nil
}

// discard closes and removes the temp file without publishing.
func (w *Writer) discard() {
	w.f.Close()
	os.Remove(w.f.Name())
}

// Discard abandons the file: the temp file is removed and nothing appears
// at the destination path. Safe after Close (then a no-op).
func (w *Writer) Discard() {
	if w.closed {
		return
	}
	w.closed = true
	w.discard()
}

// AddFloat64 appends a float64 column. The value count must equal the
// writer's row count.
func (w *Writer) AddFloat64(name string, values []float64) error {
	return w.addColumn(name, Float64, len(values), func(i int) uint64 {
		return math.Float64bits(values[i])
	})
}

// AddInt64 appends an int64 column.
func (w *Writer) AddInt64(name string, values []int64) error {
	return w.addColumn(name, Int64, len(values), func(i int) uint64 {
		return uint64(values[i])
	})
}

func (w *Writer) addColumn(name string, t ColumnType, n int, word func(i int) uint64) error {
	if w.closed {
		return fmt.Errorf("colstore: writer closed")
	}
	if w.err != nil {
		return w.err
	}
	// Any rejected Add poisons the writer: Close must never publish a file
	// whose column set differs from what the caller intended to write.
	fail := func(err error) error {
		w.err = err
		return err
	}
	if uint64(n) != w.rows {
		return fail(fmt.Errorf("colstore: column %q has %d rows, file has %d", name, n, w.rows))
	}
	if w.names[name] {
		return fail(fmt.Errorf("colstore: duplicate column %q", name))
	}
	if len(name) == 0 || len(name) > 1<<15 {
		return fail(fmt.Errorf("colstore: bad column name length %d", len(name)))
	}
	w.names[name] = true
	ci := ColumnInfo{Name: name, Type: t, Rows: w.rows}
	buf := make([]byte, 8*w.chunkRows)
	for start := 0; start < n || (n == 0 && start == 0); start += w.chunkRows {
		end := start + w.chunkRows
		if end > n {
			end = n
		}
		rows := end - start
		for i := 0; i < rows; i++ {
			binary.LittleEndian.PutUint64(buf[8*i:], word(start+i))
		}
		chunk := buf[:8*rows]
		ci.chunks = append(ci.chunks, chunkInfo{
			offset: w.w.n,
			rows:   uint32(rows),
			crc:    crc32.ChecksumIEEE(chunk),
		})
		if _, err := w.w.Write(chunk); err != nil {
			w.err = fmt.Errorf("colstore: write column %q: %w", name, err)
			return w.err
		}
		if n == 0 {
			break
		}
	}
	w.cols = append(w.cols, ci)
	return nil
}

// Close writes the directory and trailer, fsyncs the temp file, and
// atomically renames it to the destination path. If any earlier Add
// failed, Close removes the temp file and returns that error — nothing
// appears at the destination. Close is idempotent.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if w.err != nil {
		w.discard()
		return w.err
	}
	dirOffset := w.w.n
	var buf []byte
	buf = binary.LittleEndian.AppendUint64(buf, w.rows)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(w.cols)))
	for _, c := range w.cols {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(c.Name)))
		buf = append(buf, c.Name...)
		buf = append(buf, byte(c.Type))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.chunks)))
		for _, ch := range c.chunks {
			buf = binary.LittleEndian.AppendUint64(buf, ch.offset)
			buf = binary.LittleEndian.AppendUint32(buf, ch.rows)
			buf = binary.LittleEndian.AppendUint32(buf, ch.crc)
		}
	}
	buf = binary.LittleEndian.AppendUint64(buf, dirOffset)
	buf = append(buf, magic[:]...)
	if _, err := w.w.Write(buf); err != nil {
		w.discard()
		return fmt.Errorf("colstore: write directory: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		w.discard()
		return fmt.Errorf("colstore: sync: %w", err)
	}
	tmpName := w.f.Name()
	if err := w.f.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("colstore: close: %w", err)
	}
	if err := os.Rename(tmpName, w.path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("colstore: publish: %w", err)
	}
	// Persist the rename itself so a crash cannot roll it back.
	if d, err := os.Open(filepath.Dir(w.path)); err == nil {
		d.Sync() //nolint:errcheck // advisory: rename is already visible
		d.Close()
	}
	return nil
}

// File is an open colstore file.
type File struct {
	f       *os.File
	path    string
	rows    uint64
	cols    map[string]*ColumnInfo
	order   []string
	ioBytes atomic.Uint64
}

// Open opens a colstore file for reading.
func Open(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("colstore: %w", err)
	}
	file := &File{f: f, path: path, cols: map[string]*ColumnInfo{}}
	if err := file.readDirectory(); err != nil {
		f.Close()
		return nil, err
	}
	return file, nil
}

func (file *File) readDirectory() error {
	st, err := file.f.Stat()
	if err != nil {
		return fmt.Errorf("colstore: stat: %w", err)
	}
	if st.Size() < 20 {
		return fmt.Errorf("colstore: %s: file too small", file.path)
	}
	trailer := make([]byte, 12)
	if _, err := file.f.ReadAt(trailer, st.Size()-12); err != nil {
		return fmt.Errorf("colstore: read trailer: %w", err)
	}
	if string(trailer[8:12]) != string(magic[:]) {
		return fmt.Errorf("colstore: %s: bad trailer magic", file.path)
	}
	hdr := make([]byte, 8)
	if _, err := file.f.ReadAt(hdr, 0); err != nil {
		return fmt.Errorf("colstore: read header: %w", err)
	}
	if string(hdr[:4]) != string(magic[:]) {
		return fmt.Errorf("colstore: %s: bad header magic", file.path)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != version {
		return fmt.Errorf("colstore: %s: unsupported version %d", file.path, v)
	}
	dirOffset := binary.LittleEndian.Uint64(trailer[:8])
	if dirOffset < 8 || dirOffset > uint64(st.Size())-12 {
		return fmt.Errorf("colstore: %s: directory offset out of range", file.path)
	}
	dir := make([]byte, uint64(st.Size())-12-dirOffset)
	if _, err := file.f.ReadAt(dir, int64(dirOffset)); err != nil {
		return fmt.Errorf("colstore: read directory: %w", err)
	}
	r := &byteReader{b: dir}
	file.rows = r.u64()
	ncols := r.u32()
	// Each chunk entry occupies 16 bytes in the directory; reject counts
	// that could not possibly fit, before allocating.
	maxChunks := uint32(len(dir) / 16)
	for i := uint32(0); i < ncols && r.err == nil; i++ {
		nameLen := r.u16()
		name := string(r.bytes(int(nameLen)))
		ct := ColumnType(r.u8())
		nchunks := r.u32()
		if nchunks > maxChunks {
			return fmt.Errorf("colstore: %s: column %q claims %d chunks in a %d-byte directory",
				file.path, name, nchunks, len(dir))
		}
		ci := &ColumnInfo{Name: name, Type: ct, Rows: file.rows}
		var chunkRows uint64
		for j := uint32(0); j < nchunks && r.err == nil; j++ {
			ch := chunkInfo{offset: r.u64(), rows: r.u32(), crc: r.u32()}
			// Every chunk lies between the header and the directory, so
			// reads never need to re-check the file size.
			if r.err == nil && (ch.offset < 8 || ch.offset > dirOffset ||
				uint64(ch.rows) > (dirOffset-ch.offset)/8) {
				return fmt.Errorf("colstore: %s: column %q chunk %d [%d, +%d rows) outside the data region [8, %d)",
					file.path, name, j, ch.offset, ch.rows, dirOffset)
			}
			// Chunks of one column are disjoint, so together they fit the
			// data region too: overlapping extents must not let a column
			// claim more rows than the file holds, which every full read
			// would allocate up front.
			if chunkRows += uint64(ch.rows); chunkRows > (dirOffset-8)/8 {
				return fmt.Errorf("colstore: %s: column %q chunks hold more rows than the %d-byte data region",
					file.path, name, dirOffset-8)
			}
			ci.chunks = append(ci.chunks, ch)
		}
		if r.err == nil && chunkRows != file.rows {
			return fmt.Errorf("colstore: %s: column %q chunks hold %d rows, directory claims %d",
				file.path, name, chunkRows, file.rows)
		}
		file.cols[name] = ci
		file.order = append(file.order, name)
	}
	if r.err != nil {
		return fmt.Errorf("colstore: %s: corrupt directory: %w", file.path, r.err)
	}
	return nil
}

type byteReader struct {
	b   []byte
	i   int
	err error
}

func (r *byteReader) bytes(n int) []byte {
	if r.err != nil || r.i+n > len(r.b) {
		if r.err == nil {
			r.err = io.ErrUnexpectedEOF
		}
		return make([]byte, n)
	}
	out := r.b[r.i : r.i+n]
	r.i += n
	return out
}

func (r *byteReader) u8() uint8   { return r.bytes(1)[0] }
func (r *byteReader) u16() uint16 { return binary.LittleEndian.Uint16(r.bytes(2)) }
func (r *byteReader) u32() uint32 { return binary.LittleEndian.Uint32(r.bytes(4)) }
func (r *byteReader) u64() uint64 { return binary.LittleEndian.Uint64(r.bytes(8)) }

// Close closes the underlying file.
func (file *File) Close() error { return file.f.Close() }

// Path returns the file path.
func (file *File) Path() string { return file.path }

// Rows returns the number of rows per column.
func (file *File) Rows() uint64 { return file.rows }

// BytesRead returns the cumulative number of data bytes read from this
// file, used for I/O accounting in the parallel performance model.
func (file *File) BytesRead() uint64 { return file.ioBytes.Load() }

// Columns returns the stored column names in file order.
func (file *File) Columns() []string {
	return append([]string(nil), file.order...)
}

// Column returns metadata for a named column.
func (file *File) Column(name string) (ColumnInfo, error) {
	ci, ok := file.cols[name]
	if !ok {
		names := append([]string(nil), file.order...)
		sort.Strings(names)
		return ColumnInfo{}, fmt.Errorf("colstore: no column %q (have %v)", name, names)
	}
	return *ci, nil
}

// HasColumn reports whether the file stores a column with that name.
func (file *File) HasColumn(name string) bool {
	_, ok := file.cols[name]
	return ok
}

// chunkBufBytes is the size of a free-listed chunk buffer: one
// DefaultChunkRows chunk.
const chunkBufBytes = 8 * DefaultChunkRows

// freeBufs is the free list of chunk read buffers, so that a read reuses
// a buffer instead of allocating (and zeroing) one per chunk. It holds
// only buffers of exactly chunkBufBytes, at most 16 of them: 8 MiB, and
// one for each chunk read in flight when a server runs twice its default
// 8 concurrent requests (a read holds one buffer at a time). A
// channel rather than a sync.Pool: a pool is emptied by every GC, a
// channel keeps what a read allocates independent of when the collector
// runs. The buffers carry nothing from one read to the next: every read
// fills its buffer from the file and checks the CRC before anyone sees a
// byte.
var freeBufs = make(chan []byte, 16)

// getChunkBuf returns an n-byte buffer: a free-listed one when n fits and
// the list is not empty, else a fresh one of exactly n bytes, as a read
// allocated before the list existed. Only a fresh chunkBufBytes buffer
// joins the list later, so a chunk larger than that (a custom or hostile
// file's) cannot grow what the list keeps.
func getChunkBuf(n int) []byte {
	if n <= chunkBufBytes {
		select {
		case b := <-freeBufs:
			return b[:n]
		default:
		}
	}
	return make([]byte, n)
}

// putChunkBuf hands buf back to the free list if it is a full-chunk
// buffer and the list has room.
func putChunkBuf(buf []byte) {
	if cap(buf) != chunkBufBytes {
		return
	}
	select {
	case freeBufs <- buf:
	default:
	}
}

// readChunk reads and CRC-verifies one chunk of a column into a
// free-listed buffer; Open has already checked that it lies inside the
// data region. The caller hands the buffer back with putChunkBuf once it
// has decoded it. cost, when non-nil, is charged the bytes actually read —
// the per-query view of the same I/O the file-level ioBytes counter
// accumulates globally.
func (file *File) readChunk(ci *ColumnInfo, idx int, cost *obs.Cost) ([]byte, error) {
	ch := ci.chunks[idx]
	buf := getChunkBuf(8 * int(ch.rows))
	if _, err := file.f.ReadAt(buf, int64(ch.offset)); err != nil {
		putChunkBuf(buf)
		return nil, fmt.Errorf("colstore: read %q chunk %d: %w", ci.Name, idx, err)
	}
	file.ioBytes.Add(uint64(len(buf)))
	cost.AddDataBytes(uint64(len(buf)))
	if crc := crc32.ChecksumIEEE(buf); crc != ch.crc {
		putChunkBuf(buf)
		return nil, fmt.Errorf("colstore: %q chunk %d: CRC mismatch (stored %08x, computed %08x)",
			ci.Name, idx, ch.crc, crc)
	}
	return buf, nil
}

// column looks up a column and checks that its type is one of want.
func (file *File) column(name string, want ...ColumnType) (*ColumnInfo, error) {
	ci, ok := file.cols[name]
	if !ok {
		return nil, fmt.Errorf("colstore: no column %q", name)
	}
	for _, t := range want {
		if ci.Type == t {
			return ci, nil
		}
	}
	if len(want) == 1 {
		return nil, fmt.Errorf("colstore: column %q is %s, not %s", name, ci.Type, want[0])
	}
	return nil, fmt.Errorf("colstore: column %q has unknown type", name)
}

// readRange reads the chunks of ci that overlap rows [lo, hi) and hands
// fn each one's bytes clipped to the range, in row order. It charges the
// chunk bytes and the hi-lo values to cost. The caller has checked
// lo <= hi <= rows.
//
// fn must not keep words, or any slice of it: the bytes live in a
// free-listed buffer that the next chunk read overwrites.
func (file *File) readRange(ci *ColumnInfo, lo, hi uint64, cost *obs.Cost, fn func(words []byte)) error {
	var base uint64
	for idx := 0; idx < len(ci.chunks) && base < hi && lo < hi; idx++ {
		end := base + uint64(ci.chunks[idx].rows)
		if end > lo {
			buf, err := file.readChunk(ci, idx, cost)
			if err != nil {
				return err
			}
			fn(buf[8*(max(lo, base)-base) : 8*(min(hi, end)-base)])
			putChunkBuf(buf)
		}
		base = end
	}
	cost.AddValues(hi - lo)
	return nil
}

// ReadFloat64 reads a whole float64 column.
func (file *File) ReadFloat64(name string) ([]float64, error) {
	if _, err := file.column(name, Float64); err != nil {
		return nil, err
	}
	return file.ReadAsFloat64RangeCost(name, 0, file.rows, nil)
}

// ReadInt64 reads a whole int64 column.
func (file *File) ReadInt64(name string) ([]int64, error) {
	ci, err := file.column(name, Int64)
	if err != nil {
		return nil, err
	}
	out := make([]int64, file.rows)
	next := out
	err = file.readRange(ci, 0, file.rows, nil, func(words []byte) {
		dst := next[:len(words)/8]
		for i := range dst {
			dst[i] = int64(binary.LittleEndian.Uint64(words[8*i:]))
		}
		next = next[len(dst):]
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MaxExactInt bounds the int64 values a float64 carries exactly: every
// integer in [-2^53, 2^53] fits the 53-bit mantissa, and 2^53+1 is the
// first that does not.
const MaxExactInt = 1 << 53

// ExactInt returns the identifier a float64 value read from an id column
// carries: v itself when it is an integer within ±MaxExactInt, and an
// error otherwise — a fraction or a value past the mantissa names no one
// particle, and truncating it would track another.
func ExactInt(v float64) (int64, error) {
	if v != math.Trunc(v) || math.Abs(v) > MaxExactInt {
		return 0, fmt.Errorf("colstore: identifier %g is not an integer within ±2^53", v)
	}
	return int64(v), nil
}

// ReadAsFloat64 reads any column as float64, converting int64 values.
// Particle identifiers fit in the 53-bit mantissa, so the conversion is
// exact for this system's data: the ID gathers of tracking and ID
// selection read identifiers this way, and ingest refuses any int value
// beyond ±MaxExactInt rather than let it be tracked as its neighbour.
func (file *File) ReadAsFloat64(name string) ([]float64, error) {
	return file.ReadAsFloat64RangeCost(name, 0, file.rows, nil)
}

// ReadAsFloat64RangeCost reads rows [lo, hi) of any column as float64,
// touching only the chunks that overlap the range, and charges the read
// to cost. It is the access path of a shard fragment, which owns one
// contiguous row range of the step.
func (file *File) ReadAsFloat64RangeCost(name string, lo, hi uint64, cost *obs.Cost) ([]float64, error) {
	ci, err := file.column(name, Float64, Int64)
	if err != nil {
		return nil, err
	}
	if lo > hi || hi > file.rows {
		return nil, fmt.Errorf("colstore: %q: row range [%d, %d) outside [0, %d)", name, lo, hi, file.rows)
	}
	out := make([]float64, hi-lo)
	next := out
	err = file.readRange(ci, lo, hi, cost, func(words []byte) {
		dst := next[:len(words)/8]
		if ci.Type == Int64 {
			for i := range dst {
				dst[i] = float64(int64(binary.LittleEndian.Uint64(words[8*i:])))
			}
		} else {
			for i := range dst {
				dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(words[8*i:]))
			}
		}
		next = next[len(dst):]
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ReadFloat64At gathers the float64 values at the given sorted row
// positions, reading only the chunks that contain requested rows. This is
// the access path for index candidate checks, which touch a small number
// of rows.
func (file *File) ReadFloat64At(name string, positions []uint64) ([]float64, error) {
	return file.ReadFloat64AtCost(name, positions, nil)
}

// ReadFloat64AtCost is ReadFloat64At charging chunk bytes and gathered
// values into cost for per-query attribution.
func (file *File) ReadFloat64AtCost(name string, positions []uint64, cost *obs.Cost) ([]float64, error) {
	out := make([]float64, len(positions))
	next := out
	err := file.gatherAt(name, positions, cost, func(t ColumnType, words []byte, base uint64, pos []uint64) error {
		decodeAt(t, words, base, pos, next)
		next = next[len(pos):]
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// gatherBatch is the most values VisitFloat64AtCost decodes before it
// hands them on: 4 KiB, a fixed cost however many positions it reads.
const gatherBatch = 512

// VisitFloat64AtCost reads the values at the sorted row positions as
// ReadFloat64AtCost does, chunk by chunk, and charges cost the same, but
// keeps none of them: while a chunk's buffer is in hand it decodes the
// values at the positions in it, at most gatherBatch at a time, and
// hands fn each batch — a run of the positions and their values. What it
// allocates does not grow with the positions. fn must keep neither
// slice; an error from fn stops the read and is returned as is.
func (file *File) VisitFloat64AtCost(name string, positions []uint64, cost *obs.Cost, fn func(positions []uint64, values []float64) error) error {
	batch := make([]float64, min(len(positions), gatherBatch))
	return file.gatherAt(name, positions, cost, func(t ColumnType, words []byte, base uint64, pos []uint64) error {
		for len(pos) > 0 {
			run := pos[:min(len(pos), len(batch))]
			decodeAt(t, words, base, run, batch)
			if err := fn(run, batch[:len(run)]); err != nil {
				return err
			}
			pos = pos[len(run):]
		}
		return nil
	})
}

// gatherAt reads the chunks of a float64 or int64 column that hold the
// sorted positions, and hands fn each one's verified words, the row of
// its first value and the positions in it, in row order; it charges cost
// the chunk bytes and, once every position is read, the values. fn must
// not keep words: the next chunk read overwrites its buffer.
func (file *File) gatherAt(name string, positions []uint64, cost *obs.Cost, fn func(t ColumnType, words []byte, base uint64, pos []uint64) error) error {
	ci, err := file.column(name, Float64, Int64)
	if err != nil {
		return err
	}
	for i := 1; i < len(positions); i++ {
		if positions[i] < positions[i-1] {
			return fmt.Errorf("colstore: positions not sorted at %d", i)
		}
	}
	pos := positions
	var base uint64
	for idx := 0; idx < len(ci.chunks) && len(pos) > 0; idx++ {
		end := base + uint64(ci.chunks[idx].rows)
		if pos[0] < end {
			n := sort.Search(len(pos), func(i int) bool { return pos[i] >= end })
			buf, err := file.readChunk(ci, idx, cost)
			if err != nil {
				return err
			}
			err = fn(ci.Type, buf, base, pos[:n])
			putChunkBuf(buf)
			if err != nil {
				return err
			}
			pos = pos[n:]
		}
		base = end
	}
	if len(pos) > 0 {
		return fmt.Errorf("colstore: position %d out of range (%d rows)", pos[0], file.rows)
	}
	cost.AddValues(uint64(len(positions)))
	return nil
}

// decodeAt writes into dst the values at the positions pos of a chunk's
// words, whose first value is row base, as float64. The column type is
// tested once, not per value.
func decodeAt(t ColumnType, words []byte, base uint64, pos []uint64, dst []float64) {
	dst = dst[:len(pos)]
	if t == Int64 {
		for i, p := range pos {
			dst[i] = float64(int64(binary.LittleEndian.Uint64(words[8*(p-base):])))
		}
		return
	}
	for i, p := range pos {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(words[8*(p-base):]))
	}
}
