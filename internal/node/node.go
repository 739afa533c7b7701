// Package node defines the in-memory B-tree node and its binary page
// encoding. Nodes hold only substituted search keys (see internal/keysub) —
// plaintext keys never reach this layer — and are serialized to a compact
// binary page that the cipher layer seals before it touches the store.
//
// Page layout (all integers big-endian):
//
//	magic    byte    0xEB
//	version  byte    0x01
//	flags    byte    bit0 = leaf, bit1 = prefix-truncated keys (always set)
//	nkeys    uint16
//	keys     nkeys × (uint16 shared, uint16 suffixLen, suffix bytes)
//	values   nkeys × (uint32 len, bytes)
//	children (nkeys+1) × uint64   (internal nodes only)
//
// There is one key layout: each key stores only the bytes after its longest
// common prefix with the PREVIOUS key on the page. Substituted keys in one
// node share long bucket prefixes (the substitution is order-preserving), so
// this is real density: fatter fanout, shallower trees, fewer seals per
// lookup. The truncation is canonical — shared must be exactly the longest
// common prefix, so every accepted page re-encodes byte-for-byte. Bit 1 is
// set on every page; a page with it clear (the retired full-key layout) is
// rejected with ErrDecode rather than misread.
package node

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"bytes"
)

const (
	magic   = 0xEB
	version = 0x01

	flagLeaf   = 1 << 0
	flagPrefix = 1 << 1

	headerSize = 5 // magic + version + flags + nkeys

	// MaxKeyLen and MaxValueLen bound entry sizes as encodable limits.
	MaxKeyLen   = 1<<16 - 1
	MaxValueLen = 1<<32 - 1
)

// ErrDecode is returned when a page does not decode to a valid node.
var ErrDecode = errors.New("node: malformed page")

// Node is a B-tree node. For a node with n keys, leaves have n values and no
// children; internal nodes have n values (the payloads of their separator
// keys) and n+1 children.
type Node struct {
	Leaf     bool
	Keys     [][]byte // substituted search keys, strictly increasing
	Values   [][]byte
	Children []uint64 // page IDs; empty iff Leaf
}

// Search returns the index of the first key >= key, and whether that key is
// an exact match.
func (n *Node) Search(key []byte) (int, bool) {
	i := sort.Search(len(n.Keys), func(i int) bool {
		return bytes.Compare(n.Keys[i], key) >= 0
	})
	return i, i < len(n.Keys) && bytes.Equal(n.Keys[i], key)
}

func commonPrefixLen(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// EncodedSize returns the exact size in bytes of Encode's output.
func (n *Node) EncodedSize() int {
	size := headerSize
	var prev []byte
	for _, k := range n.Keys {
		size += 4 + len(k) - commonPrefixLen(prev, k)
		prev = k
	}
	for _, v := range n.Values {
		size += 4 + len(v)
	}
	if !n.Leaf {
		size += 8 * len(n.Children)
	}
	return size
}

// Encode serializes the node to a fresh page buffer.
func (n *Node) Encode() ([]byte, error) {
	if len(n.Values) != len(n.Keys) {
		return nil, fmt.Errorf("node: %d keys but %d values", len(n.Keys), len(n.Values))
	}
	if n.Leaf && len(n.Children) != 0 {
		return nil, fmt.Errorf("node: leaf with %d children", len(n.Children))
	}
	if !n.Leaf && len(n.Children) != len(n.Keys)+1 {
		return nil, fmt.Errorf("node: internal node with %d keys but %d children", len(n.Keys), len(n.Children))
	}
	if len(n.Keys) > 1<<16-1 {
		return nil, fmt.Errorf("node: too many keys: %d", len(n.Keys))
	}
	buf := make([]byte, 0, n.EncodedSize())
	flags := byte(flagPrefix)
	if n.Leaf {
		flags |= flagLeaf
	}
	buf = append(buf, magic, version, flags)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(n.Keys)))
	var prev []byte
	for _, k := range n.Keys {
		if len(k) > MaxKeyLen {
			return nil, fmt.Errorf("node: key too long: %d", len(k))
		}
		shared := commonPrefixLen(prev, k)
		buf = binary.BigEndian.AppendUint16(buf, uint16(shared))
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(k)-shared))
		buf = append(buf, k[shared:]...)
		prev = k
	}
	for _, v := range n.Values {
		if int64(len(v)) > MaxValueLen {
			return nil, fmt.Errorf("node: value too long: %d", len(v))
		}
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(v)))
		buf = append(buf, v...)
	}
	if !n.Leaf {
		for _, c := range n.Children {
			buf = binary.BigEndian.AppendUint64(buf, c)
		}
	}
	return buf, nil
}

// Decode parses a page produced by Encode. The returned node owns fresh
// buffers and does not alias the page. All key and value bytes share one
// backing buffer (allocated once, sized up front) rather than one allocation
// each — decoding is on the cache-miss path of every read, and per-entry
// allocations dominated its cost. Each key/value slice is capacity-clipped,
// so appending to one can never clobber its neighbors.
//
// Pages are held to canonical truncation: shared must be exactly the longest
// common prefix with the reconstructed previous key. Over-sharing (shared
// longer than the previous key) and under-sharing (a suffix whose first byte
// still matches the previous key at that position) both reject, so an
// accepted page re-encodes byte-for-byte. A page without the prefix flag (the
// retired full-key layout) rejects too.
func Decode(page []byte) (*Node, error) {
	if len(page) < headerSize || page[0] != magic || page[1] != version {
		return nil, ErrDecode
	}
	flags := page[2]
	if flags&^byte(flagLeaf) != flagPrefix {
		// Unknown flag bits, or a full-key page: reject rather than
		// misreading, so every accepted page re-encodes byte-identically
		// (canonical codec).
		return nil, ErrDecode
	}
	nkeys := int(binary.BigEndian.Uint16(page[3:5]))
	n := &Node{Leaf: flags&flagLeaf != 0}
	rest := page[headerSize:]

	// Size the arena. Keys expand when reconstructed, so pre-scan the key
	// headers (cheap: skips suffix bytes) to find the exact total; the scan
	// also front-loads the length arithmetic, leaving the decode loop free of
	// bounds failures.
	total, prevLen := 0, 0
	scan := rest
	for i := 0; i < nkeys; i++ {
		if len(scan) < 4 {
			return nil, ErrDecode
		}
		shared := int(binary.BigEndian.Uint16(scan))
		slen := int(binary.BigEndian.Uint16(scan[2:]))
		scan = scan[4:]
		if len(scan) < slen || shared > prevLen || (i == 0 && shared != 0) {
			return nil, ErrDecode
		}
		prevLen = shared + slen
		if prevLen > MaxKeyLen {
			// Reconstructed key would exceed the encodable bound.
			return nil, ErrDecode
		}
		total += prevLen
		scan = scan[slen:]
	}
	// len(scan) is the values+children section; values fit inside it, so the
	// arena never reallocates.
	buf := make([]byte, 0, total+len(scan))
	take := func(src []byte) []byte {
		start := len(buf)
		buf = append(buf, src...)
		return buf[start:len(buf):len(buf)]
	}

	n.Keys = make([][]byte, nkeys)
	var prev []byte
	for i := range n.Keys {
		// Bounds were proven by the pre-scan; only canonicality remains.
		shared := int(binary.BigEndian.Uint16(rest))
		slen := int(binary.BigEndian.Uint16(rest[2:]))
		rest = rest[4:]
		suffix := rest[:slen]
		rest = rest[slen:]
		if shared < len(prev) && slen > 0 && suffix[0] == prev[shared] {
			// Under-truncated: the canonical encoder would have shared one
			// more byte.
			return nil, ErrDecode
		}
		start := len(buf)
		buf = append(buf, prev[:shared]...)
		buf = append(buf, suffix...)
		n.Keys[i] = buf[start:len(buf):len(buf)]
		prev = n.Keys[i]
	}
	n.Values = make([][]byte, nkeys)
	for i := range n.Values {
		if len(rest) < 4 {
			return nil, ErrDecode
		}
		// Compare as uint64 so a length >= 2^31 returns ErrDecode on 32-bit
		// platforms instead of panicking on a negative slice bound.
		vlen32 := binary.BigEndian.Uint32(rest)
		rest = rest[4:]
		if uint64(len(rest)) < uint64(vlen32) {
			return nil, ErrDecode
		}
		n.Values[i] = take(rest[:vlen32])
		rest = rest[vlen32:]
	}
	if !n.Leaf {
		nchildren := nkeys + 1
		if len(rest) < 8*nchildren {
			return nil, ErrDecode
		}
		n.Children = make([]uint64, nchildren)
		for i := range n.Children {
			n.Children[i] = binary.BigEndian.Uint64(rest)
			rest = rest[8:]
		}
	}
	if len(rest) != 0 {
		return nil, ErrDecode
	}
	return n, nil
}
