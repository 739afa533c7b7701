// Command fuzzcorpus regenerates the checked-in fuzz seed corpora under
// internal/*/testdata/fuzz and pkg/ekbtree/wire/testdata/fuzz. Run it from
// the repo root after changing the node codec, the substituters, or the wire
// request codec:
//
//	go run ./tools/fuzzcorpus .
package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"

	"github.com/paper-repro/ekbtree/internal/node"
	"github.com/paper-repro/ekbtree/pkg/ekbtree/wire"
)

func write(dir, name string, blobs ...[]byte) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		panic(err)
	}
	var b bytes.Buffer
	b.WriteString("go test fuzz v1\n")
	for _, blob := range blobs {
		fmt.Fprintf(&b, "[]byte(%q)\n", blob)
	}
	if err := os.WriteFile(filepath.Join(dir, name), b.Bytes(), 0o644); err != nil {
		panic(err)
	}
}

func enc(n *node.Node) []byte {
	p, err := n.Encode()
	if err != nil {
		panic(err)
	}
	return p
}

func main() {
	root := os.Args[1]
	// FuzzDecode's seed-prefix-* pages are in the one page format. The
	// older seed-* files there are full-key pages from before prefix
	// truncation became the only format; they stay checked in as inputs
	// Decode must reject.
	dec := filepath.Join(root, "internal/node/testdata/fuzz/FuzzDecode")
	write(dec, "seed-prefix-empty-leaf", enc(&node.Node{Leaf: true}))
	write(dec, "seed-prefix-leaf-entries", enc(&node.Node{
		Leaf:   true,
		Keys:   [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma")},
		Values: [][]byte{[]byte("1"), {}, bytes.Repeat([]byte{0xAB}, 64)},
	}))
	write(dec, "seed-prefix-internal", enc(&node.Node{
		Keys:     [][]byte{bytes.Repeat([]byte{0x42}, 24)},
		Values:   [][]byte{[]byte("sep")},
		Children: []uint64{7, 1 << 33},
	}))
	write(dec, "seed-prefix-wide-internal", enc(&node.Node{
		Keys:     [][]byte{{0x01}, {0x02}, {0x03}, {0x04}},
		Values:   [][]byte{{0xA1}, {0xA2}, {0xA3}, {0xA4}},
		Children: []uint64{1, 2, 3, 4, ^uint64(0)},
	}))
	write(dec, "seed-prefix-truncated", []byte{0xEB, 0x01, 0x03, 0x00, 0x02, 0x00})

	pfx := filepath.Join(root, "internal/node/testdata/fuzz/FuzzDecodePrefixTruncated")
	write(pfx, "seed-empty-leaf", enc(&node.Node{Leaf: true}))
	write(pfx, "seed-bucketed-internal", enc(&node.Node{
		Keys: [][]byte{
			[]byte("bucket0017-user-000041"),
			[]byte("bucket0017-user-000389"),
			[]byte("bucket0018-user-000007"),
		},
		Values:   [][]byte{[]byte("s0"), {}, []byte("s2")},
		Children: []uint64{7, 9, 1 << 33, ^uint64(0)},
	}))
	write(pfx, "seed-deep-shared-leaf", enc(&node.Node{
		Leaf: true,
		Keys: [][]byte{
			bytes.Repeat([]byte{0x42}, 24),
			append(bytes.Repeat([]byte{0x42}, 23), 0x43),
			append(bytes.Repeat([]byte{0x42}, 23), 0x44),
		},
		Values: [][]byte{[]byte("1"), {}, bytes.Repeat([]byte{0xAB}, 64)},
	}))
	write(pfx, "seed-empty-keys", enc(&node.Node{
		Leaf:   true,
		Keys:   [][]byte{{}, {0x00}, {0x00, 0x00}},
		Values: [][]byte{{}, {}, {0xFF}},
	}))
	// Non-canonical near-miss: key2 under-truncated (suffix "b" repeats
	// prev[1]); Decode must reject it.
	write(pfx, "seed-under-truncated", []byte{
		0xEB, 0x01, 0x03, 0x00, 0x02,
		0x00, 0x00, 0x00, 0x02, 'a', 'b',
		0x00, 0x01, 0x00, 0x01, 'b',
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
	})

	rt := filepath.Join(root, "internal/keysub/testdata/fuzz/FuzzSubstituteRoundTrip")
	write(rt, "seed-users", []byte("user:0001"), []byte("user:0002"))
	write(rt, "seed-bucket-edge", []byte{0xFF, 0xFF}, []byte{0x00})
	write(rt, "seed-prefix-pair", []byte("aa-long-suffix"), []byte("aa"))

	rg := filepath.Join(root, "internal/keysub/testdata/fuzz/FuzzSubstituteRange")
	write(rg, "seed-mid", []byte("a"), []byte("q"), []byte("m"))
	write(rg, "seed-last-bucket", []byte{0xFF}, []byte{0xFF, 0x00}, []byte{0xFF, 0x00})
	write(rg, "seed-unbounded", []byte{}, []byte{0xFF, 0xFF, 0xFF}, []byte{0x10, 0x20})

	wf := filepath.Join(root, "pkg/ekbtree/wire/testdata/fuzz/FuzzDecodeRequest")
	for name, req := range map[string]wire.Request{
		"hello":       &wire.Hello{Version: wire.ProtocolVersion, Tenant: "acme"},
		"auth":        &wire.Auth{Proof: bytes.Repeat([]byte{0x11}, 32)},
		"put":         &wire.Put{Key: []byte("k"), Value: []byte("v")},
		"batch":       &wire.BatchCommit{Ops: []wire.BatchOp{{Key: []byte("a"), Value: []byte("1")}, {Del: true, Key: []byte("b")}}},
		"cursor-open": &wire.CursorOpen{HasLo: true, Lo: []byte("from"), HasHi: true, Hi: []byte("to")},
		"cursor-next": &wire.CursorNext{Cursor: 3, Max: 128},
		"vacuum":      &wire.Vacuum{Target: 1 << 40},
	} {
		write(wf, "seed-"+name, wire.EncodeRequest(req))
	}
	// A pre-auth BatchCommit whose op count the 5-byte frame cannot hold; a
	// decoder that trusted the count would size a ~112 MiB slice from it.
	write(wf, "seed-hostile-batch-count", binary.AppendUvarint([]byte{byte(wire.OpBatchCommit)}, wire.MaxFrame/2))
	// An overlong (non-canonical) varint count of zero ops: it decodes, but
	// re-encodes shorter.
	write(wf, "seed-overlong-varint", []byte{byte(wire.OpBatchCommit), 0x80, 0x00})
}
