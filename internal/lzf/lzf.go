// Package lzf implements a fast LZ77 compressor in the spirit of the
// real-time compressors (LZO1X, LZF) the Oasis prototype uses for
// per-page compression before memory images are written to the memory
// server (§4.3 "Memory upload optimizations").
//
// The format is self-contained and simple:
//
//	control byte c:
//	  c < 0x20        literal run of c+1 bytes follows
//	  c >= 0x20       back-reference; run length = (c >> 5) + 2, except
//	                  that a raw length of 7 (c >> 5 == 7) means an extra
//	                  length byte follows (+ its value); the low 5 bits of
//	                  c are the high bits of the offset and one more byte
//	                  supplies the low bits; distance = offset + 1
//
// This matches the classic LZF encoding, which trades ratio for speed —
// appropriate for compressing 4 KiB pages on the migration path where CPU
// time competes with SAS bandwidth.
//
// The format is the compatibility promise; the match finder is not. The
// compressor works a machine word at a time: it hashes three bytes out
// of a four-byte load into a 16 KiB table of window-relative positions
// (zero means empty, so the runtime clears it), extends a match eight
// bytes per step, and widens its stride over data that keeps missing, so
// an incompressible page costs less than a compressible one. Which
// matches it picks — hence the exact compressed bytes — may change
// between versions; every stream any version wrote decodes to the same
// bytes with every other (testdata/parent_streams.golden holds streams
// of the byte-at-a-time compressor this one replaced).
//
// Every input is compressed alone, as the paper compresses each page: a
// back-reference reaches only output the same stream produced, and one
// that points before the output's start is corrupt.
package lzf

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
)

const (
	hashLog  = 13
	hashSize = 1 << hashLog
	maxOff   = 1 << 13 // 8 KiB window
	maxRef   = (1 << 8) + (1 << 3)
	maxLit   = 1 << 5
	// skipLog sets how fast the stride widens: one byte more for every
	// 1<<skipLog positions tried since the last match.
	skipLog = 6
)

// ErrCorrupt is returned when Decompress encounters an impossible token
// stream (truncated input, reference before start of output, or output
// size mismatch).
var ErrCorrupt = errors.New("lzf: corrupt compressed data")

// hash mixes the low three bytes of a four-byte little-endian load.
func hash(v uint32) uint32 {
	return (v << 8) * 2654435761 >> (32 - hashLog)
}

// CompressBound returns the maximum compressed size for an input of n
// bytes (worst case: incompressible data costs one control byte per 32
// literals, plus one byte of slack).
func CompressBound(n int) int {
	return n + n/32 + 2
}

// Compress appends the compressed form of in to dst and returns the
// extended slice. Compressing empty input yields an empty output. A dst
// with CompressBound(len(in)) spare capacity is never reallocated.
func Compress(dst, in []byte) []byte {
	n := len(in)
	if n == 0 {
		return dst
	}
	op := len(dst)
	dst = slices.Grow(dst, CompressBound(n))
	dst = dst[:cap(dst)]

	// htab[h] is the last position whose three bytes hashed to h, plus
	// one, modulo 1<<16: wider than the window, so every position a
	// back-reference can reach is told apart, and a stale or empty entry
	// only ever proposes a candidate that the byte compare below refuses.
	var htab [hashSize]uint16

	anchor := 0 // first literal not yet emitted
	for ip := 0; ip+4 <= n; {
		v := binary.LittleEndian.Uint32(in[ip:])
		h := hash(v)
		off := int(uint16(ip+1)-htab[h]) - 1
		htab[h] = uint16(ip + 1)
		ref := ip - off - 1
		if uint(off) >= maxOff || ref < 0 || (binary.LittleEndian.Uint32(in[ref:])^v)<<8 != 0 {
			ip += 1 + (ip-anchor)>>skipLog
			continue
		}
		length := 3 + matchLen(in[ref+3:], in[ip+3:min(n, ip+maxRef)])
		op = putLiterals(dst, op, in[anchor:ip])
		if l := length - 2; l < 7 {
			dst[op], dst[op+1] = byte(off>>8+l<<5), byte(off)
			op += 2
		} else {
			dst[op], dst[op+1], dst[op+2] = byte(off>>8+7<<5), byte(l-7), byte(off)
			op += 3
		}
		ip += length
		anchor = ip
	}
	return dst[:putLiterals(dst, op, in[anchor:])]
}

// matchLen returns how many leading bytes of b equal those of a, which
// is at least as long, comparing eight at a time.
func matchLen(a, b []byte) int {
	n := 0
	for ; n+8 <= len(b); n += 8 {
		if x := binary.LittleEndian.Uint64(a[n:]) ^ binary.LittleEndian.Uint64(b[n:]); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
	}
	for n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// putLiterals writes lit at dst[op:] as literal runs of at most maxLit
// bytes and returns the new write position.
func putLiterals(dst []byte, op int, lit []byte) int {
	for len(lit) > 0 {
		run := min(len(lit), maxLit)
		dst[op] = byte(run - 1)
		op += 1 + copy(dst[op+1:], lit[:run])
		lit = lit[run:]
	}
	return op
}

// Validate reports whether Decompress(nil, in, outLen) would succeed,
// with the error it would return, by walking the token stream without
// writing a byte: literal runs are skipped, a back-reference only has to
// start inside the output produced so far. It is what lets a receiver
// keep a page compressed and still refuse every stream the decoder
// refuses.
func Validate(in []byte, outLen int) error {
	op, ip, n := 0, 0, len(in)
	for ip < n {
		ctrl := int(in[ip])
		ip++
		if ctrl < 0x20 {
			run := ctrl + 1
			if ip+run > n || op+run > outLen {
				return ErrCorrupt
			}
			ip += run
			op += run
			continue
		}
		length := ctrl >> 5
		if length == 7 {
			if ip >= n {
				return ErrCorrupt
			}
			length += int(in[ip])
			ip++
		}
		length += 2
		if ip >= n || op+length > outLen || op-(ctrl&0x1f)<<8-int(in[ip])-1 < 0 {
			return ErrCorrupt
		}
		ip++
		op += length
	}
	if op != outLen {
		return fmt.Errorf("%w: got %d bytes, want %d", ErrCorrupt, op, outLen)
	}
	return nil
}

// Decompress appends the decompressed form of in to dst and returns the
// extended slice. outLen is the expected decompressed size; a mismatch or
// malformed stream returns ErrCorrupt. It grows dst by outLen once and
// fills that region in place; a token that would write past it is
// refused where it stands.
func Decompress(dst, in []byte, outLen int) ([]byte, error) {
	base := len(dst)
	dst = slices.Grow(dst, outLen)
	out := dst[base : base+outLen]
	op, ip, n := 0, 0, len(in)
	for ip < n {
		ctrl := int(in[ip])
		ip++
		if ctrl < 0x20 {
			// Literal run of ctrl+1 bytes.
			run := ctrl + 1
			if ip+run > n || op+run > outLen {
				return dst[:base+op], ErrCorrupt
			}
			copy(out[op:], in[ip:ip+run])
			ip += run
			op += run
			continue
		}
		// Back reference.
		length := ctrl >> 5
		if length == 7 {
			if ip >= n {
				return dst[:base+op], ErrCorrupt
			}
			length += int(in[ip])
			ip++
		}
		length += 2
		if ip >= n || op+length > outLen {
			return dst[:base+op], ErrCorrupt
		}
		ref := op - (ctrl&0x1f)<<8 - int(in[ip]) - 1
		ip++
		end := op + length
		if ref < 0 {
			return dst[:base+op], ErrCorrupt
		}
		// copy is a memmove: where source and destination overlap, the
		// bytes already written are a whole number of periods, so each
		// round doubles what the next can take.
		for op < end {
			op += copy(out[op:end], out[ref:op])
		}
	}
	if op != outLen {
		return dst[:base+op], fmt.Errorf("%w: got %d bytes, want %d", ErrCorrupt, op, outLen)
	}
	return dst[:base+outLen], nil
}
