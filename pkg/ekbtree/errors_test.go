package ekbtree

import (
	"bytes"
	"crypto/aes"
	stdcipher "crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"testing"

	"github.com/paper-repro/ekbtree/internal/keysub"
	"github.com/paper-repro/ekbtree/internal/node"
	"github.com/paper-repro/ekbtree/internal/store"
)

// TestClosedTree verifies every façade method returns ErrClosed after Close.
func TestClosedTree(t *testing.T) {
	tr := mustOpen(t, Options{MasterKey: bytes.Repeat([]byte{0xC0}, 32)})
	if err := tr.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	if err := tr.Put([]byte("k"), []byte("v")); !errors.Is(err, ErrClosed) {
		t.Errorf("Put after Close = %v, want ErrClosed", err)
	}
	if _, _, err := tr.Get([]byte("k")); !errors.Is(err, ErrClosed) {
		t.Errorf("Get after Close = %v, want ErrClosed", err)
	}
	if _, err := tr.Delete([]byte("k")); !errors.Is(err, ErrClosed) {
		t.Errorf("Delete after Close = %v, want ErrClosed", err)
	}
	c := tr.Cursor()
	if c.First() || !errors.Is(c.Err(), ErrClosed) {
		t.Errorf("Cursor after Close: Err = %v, want ErrClosed", c.Err())
	}
	c.Close()
	rc := tr.CursorRange(nil, nil)
	if rc.First() || !errors.Is(rc.Err(), ErrClosed) {
		t.Errorf("CursorRange after Close: Err = %v, want ErrClosed", rc.Err())
	}
	rc.Close()
	if _, err := tr.Stats(); !errors.Is(err, ErrClosed) {
		t.Errorf("Stats after Close = %v, want ErrClosed", err)
	}
	if err := tr.Close(); !errors.Is(err, ErrClosed) {
		t.Errorf("second Close = %v, want ErrClosed", err)
	}
}

// wideSub is a valid Substituter whose output exceeds the page encoding's key
// limit, to drive ErrTooLarge through the façade.
type wideSub struct{}

func (wideSub) Substitute(key []byte) []byte { return make([]byte, node.MaxKeyLen+1) }
func (wideSub) Width() int                   { return node.MaxKeyLen + 1 }
func (wideSub) Name() string                 { return "wide" }

func TestErrTooLarge(t *testing.T) {
	nc, err := NewEpochAESGCMCipher(bytes.Repeat([]byte{0xC1}, 32))
	if err != nil {
		t.Fatal(err)
	}
	tr := mustOpen(t, Options{Substituter: wideSub{}, Cipher: nc})
	defer tr.Close()

	if err := tr.Put([]byte("k"), []byte("v")); !errors.Is(err, ErrTooLarge) {
		t.Errorf("Put with oversized substituted key = %v, want ErrTooLarge", err)
	}
	if _, err := tr.Delete([]byte("k")); !errors.Is(err, ErrTooLarge) {
		t.Errorf("Delete with oversized substituted key = %v, want ErrTooLarge", err)
	}
	b := tr.NewBatch()
	if err := b.Put([]byte("k"), []byte("v")); !errors.Is(err, ErrTooLarge) {
		t.Errorf("Batch.Put with oversized substituted key = %v, want ErrTooLarge", err)
	}
	b.Discard()
}

// TestOpenSentinels pins the error taxonomy of Open: ErrInvalidOptions for
// unusable Options, ErrWrongKey for an undecipherable header, and
// ErrConfigMismatch for a header written under a different configuration
// (order, substituter, or cipher scheme).
func TestOpenSentinels(t *testing.T) {
	master := bytes.Repeat([]byte{0xC2}, 32)

	for _, opts := range []Options{
		{},                              // no keys at all
		{MasterKey: []byte("short")},    // short master key
		{MasterKey: master, Order: 7},   // odd order
		{MasterKey: master, Order: 2},   // tiny order
		{MasterKey: master, Order: -10}, // negative order
	} {
		if _, err := Open(opts); !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("Open(%+v) = %v, want ErrInvalidOptions", opts, err)
		}
	}

	st := store.NewMem()
	if _, err := Open(Options{MasterKey: master, Order: 32, Store: st}); err != nil {
		t.Fatal(err)
	}

	// Wrong master key: the header does not decipher.
	if _, err := Open(Options{MasterKey: bytes.Repeat([]byte{0xC3}, 32), Store: st}); !errors.Is(err, ErrWrongKey) {
		t.Errorf("Open with wrong master key = %v, want ErrWrongKey", err)
	}
	// An explicit cipher under a different key: the header does not
	// decipher, so it reports ErrWrongKey too.
	nc, err := NewEpochAESGCMCipher(bytes.Repeat([]byte{0xC4}, 32))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{MasterKey: master, Cipher: nc, Store: st}); !errors.Is(err, ErrWrongKey) {
		t.Errorf("Open with wrong cipher = %v, want ErrWrongKey", err)
	}
	// Wrong order: header deciphers but disagrees.
	if _, err := Open(Options{MasterKey: master, Order: 8, Store: st}); !errors.Is(err, ErrConfigMismatch) {
		t.Errorf("Open with mismatched order = %v, want ErrConfigMismatch", err)
	}
	// Wrong substituter (different width): header deciphers but disagrees.
	sub, err := keysub.NewHMAC(master, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{MasterKey: master, Order: 32, Store: st, Substituter: sub}); !errors.Is(err, ErrConfigMismatch) {
		t.Errorf("Open with mismatched substituter = %v, want ErrConfigMismatch", err)
	}
	// Matching config still opens.
	if _, err := Open(Options{MasterKey: master, Order: 32, Store: st}); err != nil {
		t.Errorf("Open with matching config failed: %v", err)
	}
}

// TestStoreClosedMapsToErrClosed verifies the store-layer taxonomy surfaces
// through the façade: operations against an externally closed store report
// ErrClosed, not an anonymous failure.
// sealOnlyCipher hides every method of its cipher but NodeCipher's own, like
// a cipher written before the engine owned node nonces.
type sealOnlyCipher struct{ NodeCipher }

// TestOpenRejectsCipherWithoutEpochSealing pins the fail-closed cipher
// policy: the engine seals every node page under a nonce it allocates, so a
// cipher without SealEpoch/SealedEpoch is refused at Open rather than run on
// a nonce discipline nothing tracks.
func TestOpenRejectsCipherWithoutEpochSealing(t *testing.T) {
	nc, err := NewEpochAESGCMCipher(bytes.Repeat([]byte{0xC6}, 32))
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{
		{MasterKey: bytes.Repeat([]byte{0xC7}, 32), Cipher: sealOnlyCipher{nc}},
		{MasterKey: bytes.Repeat([]byte{0xC7}, 32), Cipher: sealOnlyCipher{nc}, Store: NewMemStore()},
	} {
		if tr, err := Open(opts); !errors.Is(err, ErrInvalidOptions) {
			if err == nil {
				tr.Close()
			}
			t.Errorf("Open with a cipher lacking SealEpoch = %v, want ErrInvalidOptions", err)
		}
	}
}

// TestPreEpochFileFailsClosed pins the policy for files written by the
// pre-epoch random-nonce cipher: their header (sealed under the raw derived
// cipher key with a random nonce, recording cipher=aes-gcm) still deciphers,
// so Open reports an honest ErrConfigMismatch, never ErrWrongKey, whether the
// cipher comes from MasterKey or from NewAESGCMCipher.
func TestPreEpochFileFailsClosed(t *testing.T) {
	master := bytes.Repeat([]byte{0xC8}, 32)
	cipherKey := deriveKey(master, "ekbtree/cipher")
	sub, err := keysub.NewHMAC(deriveKey(master, "ekbtree/keysub"), 24)
	if err != nil {
		t.Fatal(err)
	}
	block, err := aes.NewCipher(cipherKey)
	if err != nil {
		t.Fatal(err)
	}
	aead, err := stdcipher.NewGCM(block)
	if err != nil {
		t.Fatal(err)
	}
	header := []byte("ekbtree/1 order=32 keysub=" + sub.Name() + " cipher=aes-gcm")
	nonce := make([]byte, aead.NonceSize())
	if _, err := rand.Read(nonce); err != nil {
		t.Fatal(err)
	}
	var aad [8]byte
	binary.BigEndian.PutUint64(aad[:], metaPageID)
	sealed := aead.Seal(nonce, nonce, header, aad[:])

	legacyName, err := NewAESGCMCipher(cipherKey)
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []struct {
		name string
		opts Options
	}{
		{"MasterKey", Options{MasterKey: master}},
		{"NewAESGCMCipher", Options{MasterKey: master, Cipher: legacyName}},
		{"explicit layers", Options{Substituter: sub, Cipher: legacyName}},
	} {
		st := NewMemStore()
		if err := st.SetMeta(sealed); err != nil {
			t.Fatal(err)
		}
		tt.opts.Store = st
		tr, err := Open(tt.opts)
		if err == nil {
			tr.Close()
		}
		if !errors.Is(err, ErrConfigMismatch) || errors.Is(err, ErrWrongKey) {
			t.Errorf("%s: Open of a pre-epoch file = %v, want ErrConfigMismatch", tt.name, err)
		}
	}
}

func TestStoreClosedMapsToErrClosed(t *testing.T) {
	st := store.NewMem()
	tr := mustOpen(t, Options{MasterKey: bytes.Repeat([]byte{0xC5}, 32), Store: st, CachePages: -1})
	if err := tr.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tr.Get([]byte("k")); !errors.Is(err, ErrClosed) {
		t.Errorf("Get against closed store = %v, want ErrClosed", err)
	}
}
