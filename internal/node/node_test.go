package node

import (
	"bytes"
	"encoding/hex"
	"errors"
	"reflect"
	"testing"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		n    *Node
	}{
		{"empty leaf", &Node{Leaf: true}},
		{"single-entry leaf", &Node{
			Leaf:   true,
			Keys:   [][]byte{[]byte("k1")},
			Values: [][]byte{[]byte("v1")},
		}},
		{"leaf with empty key and value", &Node{
			Leaf:   true,
			Keys:   [][]byte{{}, []byte("k")},
			Values: [][]byte{{}, {}},
		}},
		{"internal node", &Node{
			Keys:     [][]byte{[]byte("b"), []byte("d")},
			Values:   [][]byte{[]byte("vb"), []byte("vd")},
			Children: []uint64{1, 2, 3},
		}},
		{"binary keys", &Node{
			Leaf:   true,
			Keys:   [][]byte{{0x00}, {0x00, 0x00}, {0xFF, 0x10}},
			Values: [][]byte{{0xAA}, bytes.Repeat([]byte{0xBB}, 300), {}},
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			page, err := tt.n.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if len(page) != tt.n.EncodedSize() {
				t.Errorf("len(page) = %d, EncodedSize = %d", len(page), tt.n.EncodedSize())
			}
			got, err := Decode(page)
			if err != nil {
				t.Fatal(err)
			}
			if !nodesEqual(got, tt.n) {
				t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, tt.n)
			}
		})
	}
}

// TestEncodeGolden pins Encode's output byte for byte — one leaf and one
// internal page, captured from the encoder before prefix truncation became
// the only layout — so pages written by earlier builds and by this one are
// interchangeable.
func TestEncodeGolden(t *testing.T) {
	tests := []struct {
		name string
		n    *Node
		want string
	}{
		{"leaf", &Node{
			Leaf:   true,
			Keys:   [][]byte{{}, []byte("bucket07-a1"), []byte("bucket07-a9"), []byte("bucket07-b"), []byte("bucket08")},
			Values: [][]byte{{}, []byte("v1"), {0x00, 0xFF}, []byte("value-3"), {}},
		}, "eb01030005000000000000000b6275636b657430372d6131000a00013900090001620007000138" +
			"000000000000000276310000000200ff0000000776616c75652d3300000000"},
		{"internal", &Node{
			Keys:     [][]byte{[]byte("userhist-0017"), []byte("userhist-0042"), []byte("userhist-1000")},
			Values:   [][]byte{[]byte("s0"), {}, []byte("s2")},
			Children: []uint64{7, 1 << 33, 12, ^uint64(0)},
		}, "eb010200030000000d75736572686973742d30303137000b0002343200090004313030300000" +
			"000273300000000000000002733200000000000000070000000200000000000000000000000c" +
			"ffffffffffffffff"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			page, err := tt.n.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(page); got != tt.want {
				t.Fatalf("Encode =\n %s\nwant\n %s", got, tt.want)
			}
			got, err := Decode(page)
			if err != nil {
				t.Fatal(err)
			}
			if !nodesEqual(got, tt.n) {
				t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, tt.n)
			}
		})
	}
}

// nodesEqual treats nil and empty slices as equal, which reflect.DeepEqual
// does not.
func nodesEqual(a, b *Node) bool {
	if a.Leaf != b.Leaf || len(a.Keys) != len(b.Keys) || len(a.Values) != len(b.Values) || len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Keys {
		if !bytes.Equal(a.Keys[i], b.Keys[i]) || !bytes.Equal(a.Values[i], b.Values[i]) {
			return false
		}
	}
	return reflect.DeepEqual(append([]uint64{}, a.Children...), append([]uint64{}, b.Children...))
}

func TestEncodeRejectsMalformedNodes(t *testing.T) {
	tests := []struct {
		name string
		n    *Node
	}{
		{"keys/values mismatch", &Node{Leaf: true, Keys: [][]byte{[]byte("k")}}},
		{"leaf with children", &Node{Leaf: true, Children: []uint64{1}}},
		{"internal children mismatch", &Node{
			Keys: [][]byte{[]byte("k")}, Values: [][]byte{[]byte("v")}, Children: []uint64{1},
		}},
		{"oversized key", &Node{
			Leaf: true, Keys: [][]byte{make([]byte, MaxKeyLen+1)}, Values: [][]byte{{}},
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := tt.n.Encode(); err == nil {
				t.Error("Encode accepted malformed node")
			}
		})
	}
}

func TestDecodeRejectsMalformedPages(t *testing.T) {
	valid, err := (&Node{
		Keys:     [][]byte{[]byte("key")},
		Values:   [][]byte{[]byte("value")},
		Children: []uint64{1, 2},
	}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name string
		page []byte
	}{
		{"nil", nil},
		{"short", []byte{magic, version}},
		{"bad magic", append([]byte{0x00}, valid[1:]...)},
		{"bad version", append([]byte{magic, 0x99}, valid[2:]...)},
		{"truncated keys", valid[:7]},
		{"truncated children", valid[:len(valid)-3]},
		{"trailing garbage", append(append([]byte(nil), valid...), 0x00)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Decode(tt.page); !errors.Is(err, ErrDecode) {
				t.Errorf("Decode = %v, want ErrDecode", err)
			}
		})
	}
}

func TestDecodeDoesNotAliasPage(t *testing.T) {
	n := &Node{Leaf: true, Keys: [][]byte{[]byte("key")}, Values: [][]byte{[]byte("val")}}
	page, err := n.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(page)
	if err != nil {
		t.Fatal(err)
	}
	for i := range page {
		page[i] = 0xFF
	}
	if !bytes.Equal(got.Keys[0], []byte("key")) || !bytes.Equal(got.Values[0], []byte("val")) {
		t.Error("decoded node aliases the page buffer")
	}
}

// fullKeySize is the size the retired full-key layout (uint16 length +
// whole key per entry) would give n: the yardstick prefix truncation is
// measured against.
func fullKeySize(n *Node) int {
	size := headerSize
	for _, k := range n.Keys {
		size += 2 + len(k)
	}
	for _, v := range n.Values {
		size += 4 + len(v)
	}
	return size + 8*len(n.Children)
}

// TestPrefixFormatRoundTrip proves prefix truncation is a lossless encoding:
// every node round-trips, the page carries the prefix flag, and for the
// prefix-sharing key shapes the substituter produces it is strictly smaller
// than storing every key whole.
func TestPrefixFormatRoundTrip(t *testing.T) {
	shared := &Node{
		Keys: [][]byte{
			[]byte("bucket0017-user-000041"),
			[]byte("bucket0017-user-000389"),
			[]byte("bucket0017-user-001022"),
			[]byte("bucket0018-user-000007"),
		},
		Values:   [][]byte{{0x01}, {0x02}, {0x03}, {0x04}},
		Children: []uint64{1, 2, 3, 4, 5},
	}
	tests := []struct {
		name        string
		n           *Node
		wantSmaller bool
	}{
		{"empty leaf", &Node{Leaf: true}, false},
		{"shared-prefix internal", shared, true},
		{"disjoint keys", &Node{
			Leaf:   true,
			Keys:   [][]byte{{0x00}, {0x80}, {0xFF}},
			Values: [][]byte{{}, {}, {}},
		}, false},
		// Short shared prefixes lose to the extra 2B/key of record overhead;
		// the format must still round-trip, it just isn't smaller.
		{"empty-suffix key", &Node{
			Leaf:   true,
			Keys:   [][]byte{[]byte("abc"), []byte("abcd")},
			Values: [][]byte{{}, {}},
		}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			page, err := tt.n.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if len(page) != tt.n.EncodedSize() {
				t.Errorf("len(page) = %d, EncodedSize = %d", len(page), tt.n.EncodedSize())
			}
			if page[2]&flagPrefix == 0 {
				t.Error("page not flagged as prefix-truncated")
			}
			if full := fullKeySize(tt.n); tt.wantSmaller && len(page) >= full {
				t.Errorf("prefix page %dB not smaller than full-key page %dB", len(page), full)
			}
			got, err := Decode(page)
			if err != nil {
				t.Fatal(err)
			}
			if !nodesEqual(got, tt.n) {
				t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, tt.n)
			}
		})
	}
}

// TestPrefixDecodeRejectsNonCanonical pins the fail-closed rules of the
// prefix format: over-truncation (shared reaching past the previous key),
// under-truncation (a suffix whose first byte the encoder would have
// shared), a nonzero shared on the first key, a reconstructed key past
// MaxKeyLen, unknown flag bits, and a full-key page (prefix flag clear) must
// all return ErrDecode.
func TestPrefixDecodeRejectsNonCanonical(t *testing.T) {
	// Keys "ab","ac" encode as header, (0,2,"ab"), (1,1,"c"), then values.
	valid, err := (&Node{
		Leaf:   true,
		Keys:   [][]byte{[]byte("ab"), []byte("ac")},
		Values: [][]byte{{}, {}},
	}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(valid); err != nil {
		t.Fatalf("baseline page rejected: %v", err)
	}
	mut := func(idx int, b byte) []byte {
		p := append([]byte(nil), valid...)
		p[idx] = b
		return p
	}
	tests := []struct {
		name string
		page []byte
	}{
		{"over-truncated", mut(headerSize+7, 3)},     // key2 shared=3 > len("ab")
		{"under-truncated", mut(headerSize+10, 'b')}, // key2 suffix "b" matches prev[1]
		{"first key shared", mut(headerSize+1, 1)},
		{"unknown flag bit", mut(2, valid[2]|1<<5)},
		{"full-format page", mut(2, valid[2]&^flagPrefix)},
		{"truncated suffix", valid[:len(valid)-9]},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Decode(tt.page); !errors.Is(err, ErrDecode) {
				t.Errorf("Decode = %v, want ErrDecode", err)
			}
		})
	}

	t.Run("reconstructed key too long", func(t *testing.T) {
		// Two max-length suffix records whose sum exceeds MaxKeyLen.
		var p []byte
		p = append(p, magic, version, flagLeaf|flagPrefix, 0x00, 0x02)
		p = append(p, 0x00, 0x00, 0xFF, 0xFF)
		p = append(p, bytes.Repeat([]byte{0xAA}, MaxKeyLen)...)
		p = append(p, 0xFF, 0xFF, 0x00, 0x01, 0xBB)
		p = append(p, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00) // two empty values
		if _, err := Decode(p); !errors.Is(err, ErrDecode) {
			t.Errorf("Decode = %v, want ErrDecode", err)
		}
	})
}

// TestPrefixDecodeArenaIsolation verifies the reconstructed keys are
// capacity-clipped slices of one arena: appending to any decoded key must
// not clobber its neighbors, and none of them may alias the input page.
func TestPrefixDecodeArenaIsolation(t *testing.T) {
	n := &Node{
		Leaf:   true,
		Keys:   [][]byte{[]byte("shared-a"), []byte("shared-b"), []byte("shared-c")},
		Values: [][]byte{[]byte("v1"), []byte("v2"), []byte("v3")},
	}
	page, err := n.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(page)
	if err != nil {
		t.Fatal(err)
	}
	for i := range page {
		page[i] = 0xFF
	}
	for i := range got.Keys {
		got.Keys[i] = append(got.Keys[i], 0xEE)
		got.Values[i] = append(got.Values[i], 0xEE)
	}
	for i, want := range n.Keys {
		if !bytes.Equal(got.Keys[i][:len(want)], want) {
			t.Errorf("key %d corrupted after neighbor appends: %q", i, got.Keys[i])
		}
	}
	for i, want := range n.Values {
		if !bytes.Equal(got.Values[i][:len(want)], want) {
			t.Errorf("value %d corrupted after neighbor appends: %q", i, got.Values[i])
		}
	}
}

func TestSearch(t *testing.T) {
	n := &Node{
		Leaf:   true,
		Keys:   [][]byte{[]byte("b"), []byte("d"), []byte("f")},
		Values: [][]byte{nil, nil, nil},
	}
	tests := []struct {
		key    string
		wantI  int
		wantEq bool
	}{
		{"a", 0, false},
		{"b", 0, true},
		{"c", 1, false},
		{"d", 1, true},
		{"f", 2, true},
		{"g", 3, false},
	}
	for _, tt := range tests {
		i, eq := n.Search([]byte(tt.key))
		if i != tt.wantI || eq != tt.wantEq {
			t.Errorf("Search(%q) = (%d, %v), want (%d, %v)", tt.key, i, eq, tt.wantI, tt.wantEq)
		}
	}
}
