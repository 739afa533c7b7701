package cipher

import (
	"bytes"
	"errors"
	"testing"
)

func testCiphers(t *testing.T) map[string]EpochSealer {
	t.Helper()
	return map[string]EpochSealer{
		"aes-gcm":   newEpochCipher(t),
		"plaintext": Plaintext{},
	}
}

func TestSealOpenRoundTrip(t *testing.T) {
	pages := []struct {
		name string
		pt   []byte
	}{
		{"empty", []byte{}},
		{"small", []byte("page-bytes")},
		{"binary", bytes.Repeat([]byte{0x00, 0xFF}, 513)},
		{"large", bytes.Repeat([]byte("0123456789abcdef"), 4096)},
	}
	for name, c := range testCiphers(t) {
		for _, tt := range pages {
			t.Run(name+"/"+tt.name, func(t *testing.T) {
				// Node pages seal under a caller nonce, the header page
				// under Seal; both round-trip with the same overhead.
				node, err := c.SealEpoch(7, 3, 99, tt.pt)
				if err != nil {
					t.Fatal(err)
				}
				header, err := c.Seal(0, tt.pt)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range []struct {
					id     uint64
					sealed []byte
				}{{7, node}, {0, header}} {
					if got, want := len(p.sealed), len(tt.pt)+c.Overhead(); got != want {
						t.Errorf("page %d: sealed len = %d, want %d", p.id, got, want)
					}
					opened, err := c.Open(p.id, p.sealed)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(opened, tt.pt) {
						t.Errorf("page %d: round trip mismatch: got %d bytes, want %d", p.id, len(opened), len(tt.pt))
					}
				}
				if epoch, ok := c.SealedEpoch(node); !ok || epoch != 3 {
					t.Errorf("SealedEpoch = %d,%v, want 3,true", epoch, ok)
				}
			})
		}
	}
}

func TestAESGCMHidesPlaintext(t *testing.T) {
	c := newEpochCipher(t)
	pt := []byte("super-secret-search-key-material")
	node, err := c.SealEpoch(1, 0, 0, pt)
	if err != nil {
		t.Fatal(err)
	}
	header, err := c.Seal(0, pt)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(node, pt[:8]) || bytes.Contains(header, pt[:8]) {
		t.Error("sealed page leaks plaintext bytes")
	}
}

// TestAESGCMTamperDetection covers the random-nonce header path (page 0);
// TestEpochTamperDetection covers node pages.
func TestAESGCMTamperDetection(t *testing.T) {
	c := newEpochCipher(t)
	sealed, err := c.Seal(0, []byte("authentic page"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []struct {
		name   string
		mutate func([]byte) ([]byte, uint64)
	}{
		{"flip ciphertext bit", func(s []byte) ([]byte, uint64) {
			s[len(s)-1] ^= 0x01
			return s, 0
		}},
		{"flip nonce bit", func(s []byte) ([]byte, uint64) {
			s[0] ^= 0x01
			return s, 0
		}},
		{"wrong page id", func(s []byte) ([]byte, uint64) { return s, 2 }},
		{"truncated", func(s []byte) ([]byte, uint64) { return s[:4], 0 }},
		{"empty", func(s []byte) ([]byte, uint64) { return nil, 0 }},
	} {
		t.Run(tt.name, func(t *testing.T) {
			s, id := tt.mutate(append([]byte(nil), sealed...))
			if _, err := c.Open(id, s); !errors.Is(err, ErrOpen) {
				t.Errorf("Open = %v, want ErrOpen", err)
			}
		})
	}
}

func TestNewAESGCMKeySizes(t *testing.T) {
	for _, size := range []int{16, 24, 32} {
		if _, err := NewEpochAESGCM(make([]byte, size)); err != nil {
			t.Errorf("key size %d rejected: %v", size, err)
		}
	}
	for _, size := range []int{0, 15, 31, 33} {
		if _, err := NewEpochAESGCM(make([]byte, size)); err == nil {
			t.Errorf("key size %d accepted", size)
		}
	}
}

// TestSealIsRandomized pins the header path's random nonce: node pages get
// their nonce uniqueness from the caller's counter, the header from Seal.
func TestSealIsRandomized(t *testing.T) {
	c := newEpochCipher(t)
	s1, _ := c.Seal(0, []byte("same page"))
	s2, _ := c.Seal(0, []byte("same page"))
	if bytes.Equal(s1, s2) {
		t.Error("two seals of the same page produced identical ciphertext")
	}
}
