package cipher

import (
	"bytes"
	stdaes "crypto/aes"
	stdcipher "crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"testing"
)

func newEpochCipher(t *testing.T) *EpochAESGCM {
	t.Helper()
	c, err := NewEpochAESGCM(bytes.Repeat([]byte{0x42}, 32))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestEpochSealOpenRoundTrip(t *testing.T) {
	c := newEpochCipher(t)
	pages := [][]byte{
		{},
		[]byte("page-bytes"),
		bytes.Repeat([]byte{0x00, 0xFF}, 513),
	}
	for _, pt := range pages {
		for _, epoch := range []uint32{0, 1, 7, 1 << 30} {
			sealed, err := c.SealEpoch(7, epoch, 12345, pt)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := len(sealed), len(pt)+c.Overhead(); got != want {
				t.Errorf("sealed len = %d, want %d", got, want)
			}
			opened, err := c.Open(7, sealed)
			if err != nil {
				t.Fatalf("epoch %d: %v", epoch, err)
			}
			if !bytes.Equal(opened, pt) {
				t.Errorf("epoch %d: round trip mismatch", epoch)
			}
			if got, ok := c.SealedEpoch(sealed); !ok || got != epoch {
				t.Errorf("SealedEpoch = %d,%v, want %d,true", got, ok, epoch)
			}
		}
	}
}

func TestEpochNonceIsDeterministic(t *testing.T) {
	c := newEpochCipher(t)
	sealed, err := c.SealEpoch(3, 9, 0x0102030405060708, []byte("pt"))
	if err != nil {
		t.Fatal(err)
	}
	var want [12]byte
	binary.BigEndian.PutUint32(want[:4], 9)
	binary.BigEndian.PutUint64(want[4:], 0x0102030405060708)
	if !bytes.Equal(sealed[:12], want[:]) {
		t.Errorf("nonce = %x, want %x", sealed[:12], want)
	}
	// Identical (epoch, counter, plaintext) seals are identical bytes — the
	// scheme is deterministic; uniqueness comes from the counter discipline.
	again, _ := c.SealEpoch(3, 9, 0x0102030405060708, []byte("pt"))
	if !bytes.Equal(sealed, again) {
		t.Error("same (epoch, counter) sealed differently")
	}
	// A different counter or epoch changes the ciphertext.
	other, _ := c.SealEpoch(3, 9, 0x0102030405060709, []byte("pt"))
	if bytes.Equal(sealed[12:], other[12:]) {
		t.Error("counter change did not change ciphertext")
	}
}

func TestEpochKeysAreIndependent(t *testing.T) {
	c := newEpochCipher(t)
	s0, err := c.SealEpoch(1, 0, 42, []byte("same plaintext"))
	if err != nil {
		t.Fatal(err)
	}
	s1, err := c.SealEpoch(1, 1, 42, []byte("same plaintext"))
	if err != nil {
		t.Fatal(err)
	}
	// Same counter, same plaintext, different epoch: different key, so the
	// ciphertext bodies must differ.
	if bytes.Equal(s0[12:], s1[12:]) {
		t.Error("epoch 0 and epoch 1 produced identical ciphertext under the same counter")
	}
	// Tampering the epoch prefix re-keys the open and must fail auth.
	forged := append([]byte(nil), s0...)
	binary.BigEndian.PutUint32(forged[:4], 1)
	if _, err := c.Open(1, forged); !errors.Is(err, ErrOpen) {
		t.Errorf("Open with forged epoch prefix = %v, want ErrOpen", err)
	}
}

// legacyGCM is the pre-epoch random-nonce page seal, rebuilt from the
// standard library: AES-GCM under the raw key, nonce || ct+tag, big-endian
// page ID as associated data.
func legacyGCM(t *testing.T, key []byte) stdcipher.AEAD {
	t.Helper()
	block, err := stdaes.NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	aead, err := stdcipher.NewGCM(block)
	if err != nil {
		t.Fatal(err)
	}
	return aead
}

func TestEpochHeaderPageIsLegacyCompatible(t *testing.T) {
	key := bytes.Repeat([]byte{0x42}, 32)
	legacy := legacyGCM(t, key)
	epochc, _ := NewEpochAESGCM(key)

	// Page 0 sealed by the pre-epoch scheme opens under the epoch cipher and
	// vice versa: the header path uses the raw subkey and a random nonce in
	// both schemes, which is what lets Open distinguish "wrong key" from
	// "right key, different scheme" on pre-epoch files.
	pt := []byte("ekbtree/1 order=32 keysub=hmac cipher=aes-gcm")
	nonce := make([]byte, legacy.NonceSize())
	if _, err := rand.Read(nonce); err != nil {
		t.Fatal(err)
	}
	sealed := legacy.Seal(nonce, nonce, pt, pageAAD(0))
	opened, err := epochc.Open(0, sealed)
	if err != nil {
		t.Fatalf("epoch cipher failed to open legacy header: %v", err)
	}
	if !bytes.Equal(opened, pt) {
		t.Error("legacy header mismatch through epoch cipher")
	}
	sealed2, err := epochc.Seal(0, pt)
	if err != nil {
		t.Fatal(err)
	}
	n := legacy.NonceSize()
	if _, err := legacy.Open(nil, sealed2[:n], sealed2[n:], pageAAD(0)); err != nil {
		t.Fatalf("legacy cipher failed to open epoch-cipher header: %v", err)
	}
}

func TestEpochSealRefusesNodePages(t *testing.T) {
	for _, c := range []EpochSealer{newEpochCipher(t), Plaintext{}} {
		if _, err := c.Seal(1, []byte("node page")); err == nil {
			t.Errorf("%s: Seal(pageID>0) succeeded; node pages must go through SealEpoch", c.Name())
		}
	}
}

func TestEpochTamperDetection(t *testing.T) {
	c := newEpochCipher(t)
	sealed, err := c.SealEpoch(1, 2, 3, []byte("authentic page"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []struct {
		name   string
		mutate func([]byte) ([]byte, uint64)
	}{
		{"flip ciphertext bit", func(s []byte) ([]byte, uint64) {
			s[len(s)-1] ^= 0x01
			return s, 1
		}},
		{"flip counter bit", func(s []byte) ([]byte, uint64) {
			s[11] ^= 0x01
			return s, 1
		}},
		{"wrong page id", func(s []byte) ([]byte, uint64) { return s, 2 }},
		{"truncated", func(s []byte) ([]byte, uint64) { return s[:4], 1 }},
		{"empty", func(s []byte) ([]byte, uint64) { return nil, 1 }},
	} {
		t.Run(tt.name, func(t *testing.T) {
			s, id := tt.mutate(append([]byte(nil), sealed...))
			if _, err := c.Open(id, s); !errors.Is(err, ErrOpen) {
				t.Errorf("Open = %v, want ErrOpen", err)
			}
		})
	}
}
