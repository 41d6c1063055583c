package fastbit

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/bitmap"
)

// ErrCorrupt marks index files whose bytes fail validation — truncated
// sections or CRC mismatches. Callers can test for it with errors.Is and
// degrade to a scan backend instead of failing the timestep.
var ErrCorrupt = errors.New("index corrupt")

// StepIndex bundles all index structures for one timestep: a range index
// per indexed variable plus the identifier index. It corresponds to the
// per-timestep FastBit index data the paper stores next to each HDF5 file
// (~2 GB of index per 7 GB timestep in their 3D dataset).
//
// The on-disk format carries a section directory so that readers can load
// a single column's index (or just the identifier index) without touching
// the rest — FastBit likewise reads only the bitmaps a query needs.
type StepIndex struct {
	N       uint64
	Columns map[string]*Index
	IDVar   string
	ID      *IDIndex
}

// BuildStepIndex indexes the given float columns and, when ids is
// non-nil, builds the identifier index under idVar.
func BuildStepIndex(cols map[string][]float64, ids []int64, idVar string, opt IndexOptions) (*StepIndex, error) {
	si := &StepIndex{Columns: map[string]*Index{}, IDVar: idVar}
	first := true
	for name, values := range cols {
		if first {
			si.N = uint64(len(values))
			first = false
		} else if uint64(len(values)) != si.N {
			return nil, fmt.Errorf("fastbit: column %q has %d rows, expected %d", name, len(values), si.N)
		}
		ix, err := BuildIndex(name, values, opt)
		if err != nil {
			return nil, err
		}
		si.Columns[name] = ix
	}
	if ids != nil {
		if first {
			si.N = uint64(len(ids))
		} else if uint64(len(ids)) != si.N {
			return nil, fmt.Errorf("fastbit: id column has %d rows, expected %d", len(ids), si.N)
		}
		si.ID = BuildIDIndex(ids)
	}
	return si, nil
}

// Evaluator returns a query evaluator over this step backed by raw.
func (si *StepIndex) Evaluator(raw RawReader) *Evaluator {
	return &Evaluator{
		N:       si.N,
		Indexes: si.Columns,
		IDVar:   si.IDVar,
		IDIdx:   si.ID,
		Raw:     raw,
	}
}

// SizeBytes returns the approximate total index size.
func (si *StepIndex) SizeBytes() int {
	s := 0
	for _, ix := range si.Columns {
		s += ix.SizeBytes()
	}
	if si.ID != nil {
		s += si.ID.SizeBytes()
	}
	return s
}

var indexMagic = [4]byte{'L', 'W', 'I', 'X'}

const indexVersion = 3

// File layout (little-endian):
//
//	"LWIX" magic, u32 version, u64 N
//	u32 ncols; per column: string name, u64 offset, u64 size, u32 crc
//	u32 hasID; when 1: string idVar, u64 offset, u64 size, u32 crc
//	column sections…, id section
//
// Offsets are absolute file positions. The per-section crc (CRC-32/IEEE of
// the section bytes, added in version 3) lets readers detect bit flips
// before decoding; version-2 files are still read, with crc checks skipped.
// A crc of 0 means "not recorded".

// encodeColumn serializes one column index section.
func encodeColumn(ix *Index) []byte {
	var buf bytes.Buffer
	writeU32(&buf, uint32(ix.Precision))
	writeU32(&buf, uint32(len(ix.Bounds)))
	for _, b := range ix.Bounds {
		writeU64(&buf, math.Float64bits(b))
	}
	for _, v := range ix.BinMin {
		writeU64(&buf, math.Float64bits(v))
	}
	for _, v := range ix.BinMax {
		writeU64(&buf, math.Float64bits(v))
	}
	writeU32(&buf, uint32(len(ix.Bitmaps)))
	for _, bm := range ix.Bitmaps {
		bm.WriteTo(&buf) //nolint:errcheck // bytes.Buffer cannot fail
	}
	return buf.Bytes()
}

// decodeColumn deserializes one column index section.
func decodeColumn(name string, n uint64, data []byte) (*Index, error) {
	r := bufio.NewReader(bytes.NewReader(data))
	prec, err := readU32(r)
	if err != nil {
		return nil, err
	}
	nbounds, err := readU32(r)
	if err != nil {
		return nil, err
	}
	if nbounds < 2 || nbounds > 1<<22 {
		return nil, fmt.Errorf("fastbit: index %q: implausible bound count %d", name, nbounds)
	}
	// The section must be large enough for its fixed-size arrays.
	if need := 8 + 24*(uint64(nbounds)-1) + 8; uint64(len(data)) < need {
		return nil, fmt.Errorf("fastbit: index %q: section %d bytes, need at least %d", name, len(data), need)
	}
	ix := &Index{Name: name, N: n, Precision: int(prec)}
	ix.Bounds = make([]float64, nbounds)
	for i := range ix.Bounds {
		u, err := readU64(r)
		if err != nil {
			return nil, err
		}
		ix.Bounds[i] = math.Float64frombits(u)
	}
	ix.BinMin = make([]float64, nbounds-1)
	ix.BinMax = make([]float64, nbounds-1)
	for i := range ix.BinMin {
		u, err := readU64(r)
		if err != nil {
			return nil, err
		}
		ix.BinMin[i] = math.Float64frombits(u)
	}
	for i := range ix.BinMax {
		u, err := readU64(r)
		if err != nil {
			return nil, err
		}
		ix.BinMax[i] = math.Float64frombits(u)
	}
	nbm, err := readU32(r)
	if err != nil {
		return nil, err
	}
	if uint64(nbm)+1 != uint64(nbounds) {
		return nil, fmt.Errorf("fastbit: index %q: %d bitmaps for %d bounds", name, nbm, nbounds)
	}
	for i := uint32(0); i < nbm; i++ {
		bm := new(bitmap.Vector)
		if _, err := bm.ReadFrom(r); err != nil {
			return nil, fmt.Errorf("fastbit: index %q bitmap %d: %w", name, i, err)
		}
		if bm.Len() != n {
			return nil, fmt.Errorf("fastbit: index %q bitmap %d: %d bits for %d rows", name, i, bm.Len(), n)
		}
		ix.Bitmaps = append(ix.Bitmaps, bm)
	}
	return ix, nil
}

// encodeIDIndex serializes the identifier index section.
func encodeIDIndex(id *IDIndex) []byte {
	var buf bytes.Buffer
	writeU64(&buf, uint64(len(id.ids)))
	for _, v := range id.ids {
		writeU64(&buf, uint64(v))
	}
	for _, p := range id.pos {
		writeU64(&buf, p)
	}
	return buf.Bytes()
}

// decodeIDIndex deserializes the identifier index section with direct
// little-endian slice access (the section is hot on the tracking path).
func decodeIDIndex(n uint64, data []byte) (*IDIndex, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("fastbit: id index section truncated")
	}
	// Bound the count by what the bytes hold before multiplying: 16*cnt
	// wraps for cnt >= 2^60.
	cnt := binary.LittleEndian.Uint64(data)
	if cnt > uint64(len(data)-8)/16 {
		return nil, fmt.Errorf("fastbit: id index section holds %d bytes for %d entries", len(data), cnt)
	}
	id := &IDIndex{ids: make([]int64, cnt), pos: make([]uint64, cnt), n: n}
	ids := data[8 : 8+8*cnt]
	pos := data[8+8*cnt : 8+16*cnt]
	for i := range id.ids {
		id.ids[i] = int64(binary.LittleEndian.Uint64(ids[8*i:]))
	}
	for i := range id.pos {
		id.pos[i] = binary.LittleEndian.Uint64(pos[8*i:])
	}
	return id, nil
}

// WriteTo serializes the step index with its section directory.
func (si *StepIndex) WriteTo(w io.Writer) (int64, error) {
	names := make([]string, 0, len(si.Columns))
	for name := range si.Columns {
		names = append(names, name)
	}
	sort.Strings(names)

	sections := make([][]byte, 0, len(names)+1)
	var header bytes.Buffer
	header.Write(indexMagic[:])
	writeU32(&header, indexVersion)
	writeU64(&header, si.N)
	writeU32(&header, uint32(len(names)))

	// First pass: compute the header size so offsets are absolute.
	headerSize := header.Len()
	for _, name := range names {
		headerSize += 4 + len(name) + 20
	}
	headerSize += 4 // hasID
	if si.ID != nil {
		headerSize += 4 + len(si.IDVar) + 20
	}

	offset := uint64(headerSize)
	for _, name := range names {
		blob := encodeColumn(si.Columns[name])
		writeString(&header, name)
		writeU64(&header, offset)
		writeU64(&header, uint64(len(blob)))
		writeU32(&header, crc32.ChecksumIEEE(blob))
		sections = append(sections, blob)
		offset += uint64(len(blob))
	}
	if si.ID != nil {
		blob := encodeIDIndex(si.ID)
		writeU32(&header, 1)
		writeString(&header, si.IDVar)
		writeU64(&header, offset)
		writeU64(&header, uint64(len(blob)))
		writeU32(&header, crc32.ChecksumIEEE(blob))
		sections = append(sections, blob)
	} else {
		writeU32(&header, 0)
	}
	if header.Len() != headerSize {
		return 0, fmt.Errorf("fastbit: internal error: header size %d != computed %d", header.Len(), headerSize)
	}

	var written int64
	n, err := w.Write(header.Bytes())
	written += int64(n)
	if err != nil {
		return written, err
	}
	for _, blob := range sections {
		n, err := w.Write(blob)
		written += int64(n)
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// section locates one directory entry. crc is the CRC-32/IEEE of the
// section bytes; 0 means not recorded (version-2 files).
type section struct {
	offset uint64
	size   uint64
	crc    uint32
}

// within reports whether the section lies inside the first n bytes, with
// no sum that can wrap.
func (s section) within(n uint64) bool {
	return s.offset <= n && s.size <= n-s.offset
}

// verify checks blob against the recorded checksum.
func (s section) verify(what string, blob []byte) error {
	if s.crc == 0 {
		return nil
	}
	if got := crc32.ChecksumIEEE(blob); got != s.crc {
		return fmt.Errorf("fastbit: section %s: crc %08x, want %08x: %w", what, got, s.crc, ErrCorrupt)
	}
	return nil
}

// directory is the parsed index file header.
type directory struct {
	n     uint64
	cols  map[string]section
	order []string
	idVar string
	idSec section
	hasID bool
}

func readDirectory(r io.Reader) (*directory, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("fastbit: read index magic: %w", err)
	}
	if magic != indexMagic {
		return nil, fmt.Errorf("fastbit: bad index magic %q: %w", magic[:], ErrCorrupt)
	}
	ver, err := readU32(br)
	if err != nil {
		return nil, err
	}
	if ver != 2 && ver != indexVersion {
		return nil, fmt.Errorf("fastbit: unsupported index version %d", ver)
	}
	d := &directory{cols: map[string]section{}}
	if d.n, err = readU64(br); err != nil {
		return nil, err
	}
	ncols, err := readU32(br)
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < ncols; i++ {
		name, err := readString(br)
		if err != nil {
			return nil, err
		}
		off, err := readU64(br)
		if err != nil {
			return nil, err
		}
		size, err := readU64(br)
		if err != nil {
			return nil, err
		}
		var crc uint32
		if ver >= 3 {
			if crc, err = readU32(br); err != nil {
				return nil, err
			}
		}
		d.cols[name] = section{off, size, crc}
		d.order = append(d.order, name)
	}
	hasID, err := readU32(br)
	if err != nil {
		return nil, err
	}
	if hasID == 1 {
		d.hasID = true
		if d.idVar, err = readString(br); err != nil {
			return nil, err
		}
		if d.idSec.offset, err = readU64(br); err != nil {
			return nil, err
		}
		if d.idSec.size, err = readU64(br); err != nil {
			return nil, err
		}
		if ver >= 3 {
			if d.idSec.crc, err = readU32(br); err != nil {
				return nil, err
			}
		}
	}
	return d, nil
}

// validate checks every directory section against the actual file size, so
// a truncated index file is rejected at open time rather than when a query
// first touches the missing tail.
func (d *directory) validate(fileSize int64) error {
	for name, sec := range d.cols {
		if !sec.within(uint64(fileSize)) {
			return fmt.Errorf("fastbit: truncated: section %q [%d,+%d) beyond file size %d: %w",
				name, sec.offset, sec.size, fileSize, ErrCorrupt)
		}
	}
	if d.hasID && !d.idSec.within(uint64(fileSize)) {
		return fmt.Errorf("fastbit: truncated: id section [%d,+%d) beyond file size %d: %w",
			d.idSec.offset, d.idSec.size, fileSize, ErrCorrupt)
	}
	return nil
}

// WriteFile writes the step index to a file atomically: the bytes go to a
// temp file in the same directory, which is fsynced and then renamed over
// the destination. A crash at any point leaves either the old file or no
// file — never a partial index (the corruption the graceful-degradation
// path in fastquery exists to survive, but better never to create).
func (si *StepIndex) WriteFile(path string) error {
	return atomicWrite(path, func(w io.Writer) error {
		_, err := si.WriteTo(w)
		return err
	})
}

// atomicWrite streams content to a temp file next to path, fsyncs it, and
// renames it into place. The temp file is removed on any failure.
func atomicWrite(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("fastbit: %w", err)
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	bw := bufio.NewWriter(tmp)
	if err := write(bw); err != nil {
		return fmt.Errorf("fastbit: write index: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("fastbit: write index: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("fastbit: sync index: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("fastbit: close index: %w", err)
	}
	name := tmp.Name()
	tmp = nil // disarm cleanup: only the rename remains
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return fmt.Errorf("fastbit: rename index: %w", err)
	}
	// Persist the rename itself so a crash cannot roll it back.
	if d, err := os.Open(dir); err == nil {
		d.Sync() //nolint:errcheck // advisory: rename is already visible
		d.Close()
	}
	return nil
}

func writeU32(w io.Writer, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	w.Write(b[:]) //nolint:errcheck // buffered writers report errors later
}

func writeU64(w io.Writer, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	w.Write(b[:]) //nolint:errcheck
}

func writeString(w io.Writer, s string) {
	writeU32(w, uint32(len(s)))
	io.WriteString(w, s) //nolint:errcheck
}

func readU32(r io.Reader) (uint32, error) {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, fmt.Errorf("fastbit: short read: %w", err)
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

func readU64(r io.Reader) (uint64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, fmt.Errorf("fastbit: short read: %w", err)
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

func readString(r io.Reader) (string, error) {
	n, err := readU32(r)
	if err != nil {
		return "", err
	}
	if n > 1<<16 {
		return "", fmt.Errorf("fastbit: unreasonable string length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", fmt.Errorf("fastbit: short read: %w", err)
	}
	return string(buf), nil
}
