package bitmap

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Binary layout of a serialized vector:
//
//	u64 n        total bit count
//	u8  nact     bits in the partial trailing group
//	u32 act      partial trailing group
//	u32 nwords   number of encoded words
//	u32[nwords]  encoded words
//
// All integers are little-endian.

// WriteTo serializes the vector. It implements io.WriterTo.
func (v *Vector) WriteTo(w io.Writer) (int64, error) {
	hdr := make([]byte, 8+1+4+4)
	binary.LittleEndian.PutUint64(hdr[0:], v.n)
	hdr[8] = v.nact
	binary.LittleEndian.PutUint32(hdr[9:], v.act)
	binary.LittleEndian.PutUint32(hdr[13:], uint32(len(v.words)))
	n, err := w.Write(hdr)
	written := int64(n)
	if err != nil {
		return written, err
	}
	buf := make([]byte, 4*len(v.words))
	for i, word := range v.words {
		binary.LittleEndian.PutUint32(buf[4*i:], word)
	}
	n, err = w.Write(buf)
	written += int64(n)
	return written, err
}

// readChunk bounds how many words ReadFrom decodes per read, so a header
// promising more words than the stream holds allocates no more than the
// stream delivers.
const readChunk = 1 << 14

// ReadFrom deserializes a vector previously written with WriteTo,
// replacing the receiver's contents. It implements io.ReaderFrom. Every
// length is checked against the header's bit count: words that decode to
// a different number of whole groups, a partial group of the wrong width
// or with bits set past its width are rejected, so a vector read here
// never disagrees with its own Len.
func (v *Vector) ReadFrom(r io.Reader) (int64, error) {
	hdr := make([]byte, 8+1+4+4)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, fmt.Errorf("bitmap: read header: %w", err)
	}
	read := int64(len(hdr))
	n := binary.LittleEndian.Uint64(hdr[0:])
	nact := hdr[8]
	act := binary.LittleEndian.Uint32(hdr[9:])
	nwords := binary.LittleEndian.Uint32(hdr[13:])
	if nact >= groupBits || uint64(nact) != n%groupBits {
		return read, fmt.Errorf("bitmap: corrupt header: nact=%d for %d bits", nact, n)
	}
	if act>>nact != 0 {
		return read, fmt.Errorf("bitmap: corrupt header: act %#x has bits past nact=%d", act, nact)
	}
	// Each word encodes at least one whole group.
	if uint64(nwords) > n/groupBits {
		return read, fmt.Errorf("bitmap: corrupt header: %d words for %d bits", nwords, n)
	}
	words := make([]uint32, 0, min(nwords, readChunk))
	buf := make([]byte, 4*min(nwords, readChunk))
	var groups uint64
	for left := nwords; left > 0; {
		k := min(left, readChunk)
		if _, err := io.ReadFull(r, buf[:4*k]); err != nil {
			return read, fmt.Errorf("bitmap: read words: %w", err)
		}
		read += 4 * int64(k)
		if len(words)+int(k) > cap(words) {
			// Grow by doubling, capped at the header's count: a stream
			// that delivers every word it promises ends exact-size.
			words = append(make([]uint32, 0, min(nwords, 2*uint32(cap(words)))), words...)
		}
		for i := uint32(0); i < k; i++ {
			w := binary.LittleEndian.Uint32(buf[4*i:])
			if w&fillFlag != 0 {
				groups += uint64(w & maxFill)
			} else {
				groups++
			}
			words = append(words, w)
		}
		left -= k
	}
	if groups != n/groupBits {
		return read, fmt.Errorf("bitmap: corrupt vector: words encode %d groups, %d bits need %d", groups, n, n/groupBits)
	}
	v.words, v.act, v.nact, v.n = words, act, nact, n
	return read, nil
}
