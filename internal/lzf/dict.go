package lzf

import "sync"

// Dictionary-seeded compression. CompressDict/DecompressDict extend the
// LZF token stream with nothing: the format on the wire is unchanged,
// but back-references may reach *before* the start of the input into a
// caller-supplied dictionary, as if the dictionary bytes had just been
// emitted. Two pages that share structure with the dictionary (per-VM
// common pages, a prior version of the same page) then compress far
// below what the 4 KiB page alone allows.
//
// Both sides must supply the same dictionary. Dictionaries longer than
// the 8 KiB match window are truncated to their last 8 KiB on both
// sides (bytes further back are unreachable by the offset encoding).

// MaxDictLen is the longest usable dictionary: the compressor's match
// window. Longer dictionaries are truncated to their trailing MaxDictLen
// bytes by both CompressDict and DecompressDict.
const MaxDictLen = maxOff

// concatPool recycles the dict||input scratch concatenation so the
// dictionary path does not allocate per page on the upload encode loop.
var concatPool = sync.Pool{New: func() any { b := make([]byte, 0, 3*maxOff); return &b }}

func clampDict(dict []byte) []byte {
	if len(dict) > MaxDictLen {
		return dict[len(dict)-MaxDictLen:]
	}
	return dict
}

// CompressDict appends the compressed form of in to dst, with dict
// seeding the match window. Compressing with an empty dict is identical
// to Compress.
func CompressDict(dst, dict, in []byte) []byte {
	dict = clampDict(dict)
	if len(dict) == 0 {
		return compressFrom(dst, in, 0)
	}
	bufp := concatPool.Get().(*[]byte)
	buf := append((*bufp)[:0], dict...)
	buf = append(buf, in...)
	dst = compressFrom(dst, buf, len(dict))
	*bufp = buf
	concatPool.Put(bufp)
	return dst
}

// DecompressDict appends the decompressed form of in to dst, resolving
// back-references that reach before the output start into dict (the
// same dictionary the compressor used). outLen is the expected
// decompressed size; a mismatch, a malformed stream, or a reference
// beyond the dictionary returns ErrCorrupt.
func DecompressDict(dst, dict, in []byte, outLen int) ([]byte, error) {
	return decompress(dst, clampDict(dict), in, outLen)
}
