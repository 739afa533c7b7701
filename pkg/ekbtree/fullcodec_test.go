package ekbtree

// A test-only baseline codec: the retired full-key page layout, kept so the
// space gates (TestPrefixEncodingShrinksFile and the `large` soak tier) can
// still measure prefix truncation against trees that store every key whole.
// The product only writes and reads prefix-truncated pages; fullTranscoder
// rewrites each node page between the engine and the real cipher, so what
// reaches the store is byte for byte the page the full-key writer produced.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/paper-repro/ekbtree/internal/cipher"
	"github.com/paper-repro/ekbtree/internal/node"
)

// Full-key page layout (big-endian): magic 0xEB, version 0x01, flags (bit0 =
// leaf; bit1 clear), uint16 nkeys, nkeys × (uint16 len, key), nkeys ×
// (uint32 len, value), then (nkeys+1) × uint64 children on internal nodes.
const (
	fullMagic      = 0xEB
	fullVersion    = 0x01
	fullFlagLeaf   = 1 << 0
	fullHeaderSize = 5
)

var errFullDecode = errors.New("fullcodec: malformed full-key page")

// encodeFull serializes n in the full-key layout.
func encodeFull(n *node.Node) []byte {
	flags := byte(0)
	if n.Leaf {
		flags = fullFlagLeaf
	}
	buf := []byte{fullMagic, fullVersion, flags}
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(n.Keys)))
	for _, k := range n.Keys {
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(k)))
		buf = append(buf, k...)
	}
	for _, v := range n.Values {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(v)))
		buf = append(buf, v...)
	}
	for _, c := range n.Children {
		buf = binary.BigEndian.AppendUint64(buf, c)
	}
	return buf
}

// decodeFull parses a full-key page written by encodeFull.
func decodeFull(page []byte) (*node.Node, error) {
	if len(page) < fullHeaderSize || page[0] != fullMagic || page[1] != fullVersion || page[2]&^byte(fullFlagLeaf) != 0 {
		return nil, errFullDecode
	}
	nkeys := int(binary.BigEndian.Uint16(page[3:]))
	n := &node.Node{Leaf: page[2]&fullFlagLeaf != 0}
	rest := page[fullHeaderSize:]
	take := func(lenSize int) ([]byte, bool) {
		if len(rest) < lenSize {
			return nil, false
		}
		var l uint64
		if lenSize == 2 {
			l = uint64(binary.BigEndian.Uint16(rest))
		} else {
			l = uint64(binary.BigEndian.Uint32(rest))
		}
		rest = rest[lenSize:]
		if uint64(len(rest)) < l {
			return nil, false
		}
		b := append([]byte{}, rest[:l]...)
		rest = rest[l:]
		return b, true
	}
	for i := 0; i < nkeys; i++ {
		k, ok := take(2)
		if !ok {
			return nil, errFullDecode
		}
		n.Keys = append(n.Keys, k)
	}
	for i := 0; i < nkeys; i++ {
		v, ok := take(4)
		if !ok {
			return nil, errFullDecode
		}
		n.Values = append(n.Values, v)
	}
	if !n.Leaf {
		if len(rest) < 8*(nkeys+1) {
			return nil, errFullDecode
		}
		for i := 0; i <= nkeys; i++ {
			n.Children = append(n.Children, binary.BigEndian.Uint64(rest))
			rest = rest[8:]
		}
	}
	if len(rest) != 0 {
		return nil, errFullDecode
	}
	return n, nil
}

// fullTranscoder is a node cipher that stores full-key pages: SealEpoch
// re-encodes the engine's prefix page in the full-key layout before sealing,
// and Open does the reverse for every page but the header. Seal (the header
// path) and SealedEpoch pass through unchanged.
type fullTranscoder struct{ cipher.EpochSealer }

func (f fullTranscoder) SealEpoch(pageID uint64, epoch uint32, counter uint64, plaintext []byte) ([]byte, error) {
	n, err := node.Decode(plaintext)
	if err != nil {
		return nil, err
	}
	return f.EpochSealer.SealEpoch(pageID, epoch, counter, encodeFull(n))
}

func (f fullTranscoder) Open(pageID uint64, sealed []byte) ([]byte, error) {
	pt, err := f.EpochSealer.Open(pageID, sealed)
	if err != nil || pageID == metaPageID {
		return pt, err
	}
	n, err := decodeFull(pt)
	if err != nil {
		return nil, err
	}
	return n.Encode()
}

// newFullTranscoder wraps the cipher a MasterKey of master derives, so a
// full-key tree differs from a default one only in its page layout.
func newFullTranscoder(t testing.TB, master []byte) fullTranscoder {
	t.Helper()
	c, err := cipher.NewEpochAESGCM(deriveKey(master, "ekbtree/cipher"))
	if err != nil {
		t.Fatal(err)
	}
	return fullTranscoder{c}
}

// readFuzzSeed returns the single []byte argument of a checked-in
// "go test fuzz v1" corpus file.
func readFuzzSeed(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: not a one-argument fuzz corpus file", path)
	}
	arg, ok := strings.CutPrefix(lines[1], "[]byte(")
	if arg, ok = strings.CutSuffix(arg, ")"); !ok {
		t.Fatalf("%s: argument is not a []byte", path)
	}
	b, err := strconv.Unquote(arg)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(b)
}

// TestFullCodecGolden pins encodeFull byte for byte against the full-key
// pages checked in as FuzzDecode seeds, which the full-key writer produced
// before prefix truncation became the only layout. decodeFull must invert
// each one, and node.Decode must reject every one of them.
func TestFullCodecGolden(t *testing.T) {
	dir := filepath.Join("..", "..", "internal", "node", "testdata", "fuzz", "FuzzDecode")
	golden := map[string]*node.Node{
		"seed-empty-leaf": {Leaf: true},
		"seed-leaf-entries": {
			Leaf:   true,
			Keys:   [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma")},
			Values: [][]byte{[]byte("1"), {}, bytes.Repeat([]byte{0xAB}, 64)},
		},
		"seed-internal": {
			Keys:     [][]byte{bytes.Repeat([]byte{0x42}, 24)},
			Values:   [][]byte{[]byte("sep")},
			Children: []uint64{7, 1 << 33},
		},
		"seed-wide-internal": {
			Keys:     [][]byte{{0x01}, {0x02}, {0x03}, {0x04}},
			Values:   [][]byte{{0xA1}, {0xA2}, {0xA3}, {0xA4}},
			Children: []uint64{1, 2, 3, 4, ^uint64(0)},
		},
	}
	for name, want := range golden {
		t.Run(name, func(t *testing.T) {
			page := readFuzzSeed(t, filepath.Join(dir, name))
			if got := encodeFull(want); !bytes.Equal(got, page) {
				t.Fatalf("encodeFull =\n %x\nwant\n %x", got, page)
			}
			n, err := decodeFull(page)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(encodeFull(n), page) {
				t.Fatal("decodeFull does not invert encodeFull")
			}
			if _, err := node.Decode(page); !errors.Is(err, node.ErrDecode) {
				t.Fatalf("node.Decode(full-key page) = %v, want ErrDecode", err)
			}
		})
	}
	if _, err := decodeFull(readFuzzSeed(t, filepath.Join(dir, "seed-truncated"))); err == nil {
		t.Fatal("decodeFull accepted a truncated page")
	}
}
