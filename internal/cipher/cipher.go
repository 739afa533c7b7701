// Package cipher implements node encipherment: whole-page authenticated
// encryption for serialized B-tree nodes. The store layer below only ever
// holds sealed pages; the node layer above only ever sees opened plaintext.
//
// Each page is bound to its page ID via associated data, so an adversary with
// write access to the store cannot swap two valid ciphertext pages without
// detection.
package cipher

import (
	stdaes "crypto/aes"
	stdcipher "crypto/cipher"
	"crypto/hkdf"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// ErrOpen is returned when a sealed page fails authentication or is
// structurally invalid.
var ErrOpen = errors.New("cipher: page authentication failed")

// NodeCipher seals and opens serialized node pages. Implementations must be
// safe for concurrent use.
type NodeCipher interface {
	// Seal enciphers plaintext for the given page ID, returning a fresh
	// buffer. The same plaintext sealed twice need not produce equal output.
	Seal(pageID uint64, plaintext []byte) ([]byte, error)
	// Open deciphers a sealed page previously produced by Seal with the same
	// page ID, returning a fresh buffer, or ErrOpen on tampering/mismatch.
	Open(pageID uint64, sealed []byte) ([]byte, error)
	// Overhead returns the number of bytes Seal adds to a plaintext page.
	Overhead() int
	// Name identifies the scheme.
	Name() string
}

func pageAAD(pageID uint64) []byte {
	var aad [8]byte
	binary.BigEndian.PutUint64(aad[:], pageID)
	return aad[:]
}

// EpochSealer is the node cipher the engine seals through: a NodeCipher
// whose node pages are sealed via SealEpoch with an engine-allocated
// (epoch, counter) nonce — collision-free by construction — so seal budgets
// and key-epoch rotation always apply. Seal remains the path for page 0, the
// façade's header, which must be decipherable before any epoch state is
// known.
type EpochSealer interface {
	NodeCipher
	// SealEpoch enciphers plaintext under key epoch's derived key using the
	// deterministic nonce epoch(32-bit big-endian) || counter(64-bit
	// big-endian). The caller must never reuse an (epoch, counter) pair.
	SealEpoch(pageID uint64, epoch uint32, counter uint64, plaintext []byte) ([]byte, error)
	// SealedEpoch reports the key epoch a sealed page was produced under
	// (readable from the nonce prefix without deciphering), or false if the
	// buffer is too short to carry one.
	SealedEpoch(sealed []byte) (uint32, bool)
}

// EpochAESGCM seals pages with AES-256-GCM under per-epoch HKDF-derived keys
// and caller-supplied counter nonces: nonce = epoch(4B BE) || counter(8B BE),
// so every seal in the tree's lifetime uses a distinct nonce as long as the
// engine never reissues a counter (a durable high-water mark guarantees that
// across crash and reopen). The sealed layout is nonce || ct+tag — the epoch
// rides in the nonce prefix, costing no extra bytes — and the big-endian page
// ID is the associated data.
//
// Page ID 0 (the façade's header/meta page) is sealed with the RAW subkey and
// a random nonce, byte-identical to the pre-epoch random-nonce scheme: the
// header must be decipherable before any epoch state is known, and a
// pre-epoch file then fails closed with an honest config mismatch (the
// header deciphers but records scheme "aes-gcm", not "aes-gcm-ctr") rather
// than a spurious wrong-key error.
type EpochAESGCM struct {
	key []byte         // cipher subkey; HKDF secret for per-epoch keys
	raw stdcipher.AEAD // raw-subkey AEAD for the page-0 header path

	mu    sync.RWMutex
	aeads map[uint32]stdcipher.AEAD // derived per-epoch AEADs, built on demand
}

// NewEpochAESGCM returns an epoch-keyed AES-GCM node cipher. The key must be
// 16, 24, or 32 bytes; per-epoch keys are always 32-byte HKDF-SHA256 outputs.
func NewEpochAESGCM(key []byte) (*EpochAESGCM, error) {
	block, err := stdaes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("cipher: %w", err)
	}
	raw, err := stdcipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("cipher: %w", err)
	}
	return &EpochAESGCM{
		key:   append([]byte(nil), key...),
		raw:   raw,
		aeads: make(map[uint32]stdcipher.AEAD),
	}, nil
}

// epochAEAD returns the AEAD for one key epoch, deriving and caching it on
// first use. Derivation is HKDF-SHA256(subkey, info="ekbtree/cipher/epoch/<e>")
// to a 32-byte AES-256 key — epochs are computationally independent, so
// exhausting one epoch's nonce space says nothing about another's.
func (c *EpochAESGCM) epochAEAD(epoch uint32) (stdcipher.AEAD, error) {
	c.mu.RLock()
	aead, ok := c.aeads[epoch]
	c.mu.RUnlock()
	if ok {
		return aead, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if aead, ok := c.aeads[epoch]; ok {
		return aead, nil
	}
	ek, err := hkdf.Key(sha256.New, c.key, nil, fmt.Sprintf("ekbtree/cipher/epoch/%d", epoch), 32)
	if err != nil {
		return nil, fmt.Errorf("cipher: epoch key: %w", err)
	}
	block, err := stdaes.NewCipher(ek)
	if err != nil {
		return nil, fmt.Errorf("cipher: %w", err)
	}
	aead, err = stdcipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("cipher: %w", err)
	}
	c.aeads[epoch] = aead
	return aead, nil
}

// Seal handles only page 0 (the header path, raw key + random nonce). Node
// pages must go through SealEpoch; sealing one here would silently burn the
// collision-free guarantee, so it is refused outright.
func (c *EpochAESGCM) Seal(pageID uint64, plaintext []byte) ([]byte, error) {
	if pageID != 0 {
		return nil, fmt.Errorf("cipher: epoch cipher requires SealEpoch for page %d", pageID)
	}
	nonceSize := c.raw.NonceSize()
	out := make([]byte, nonceSize, nonceSize+len(plaintext)+c.raw.Overhead())
	if _, err := rand.Read(out[:nonceSize]); err != nil {
		return nil, fmt.Errorf("cipher: nonce: %w", err)
	}
	return c.raw.Seal(out, out[:nonceSize], plaintext, pageAAD(pageID)), nil
}

func (c *EpochAESGCM) SealEpoch(pageID uint64, epoch uint32, counter uint64, plaintext []byte) ([]byte, error) {
	aead, err := c.epochAEAD(epoch)
	if err != nil {
		return nil, err
	}
	nonceSize := aead.NonceSize()
	out := make([]byte, nonceSize, nonceSize+len(plaintext)+aead.Overhead())
	binary.BigEndian.PutUint32(out[:4], epoch)
	binary.BigEndian.PutUint64(out[4:nonceSize], counter)
	return aead.Seal(out, out[:nonceSize], plaintext, pageAAD(pageID)), nil
}

func (c *EpochAESGCM) Open(pageID uint64, sealed []byte) ([]byte, error) {
	if pageID == 0 {
		nonceSize := c.raw.NonceSize()
		if len(sealed) < nonceSize+c.raw.Overhead() {
			return nil, ErrOpen
		}
		pt, err := c.raw.Open(nil, sealed[:nonceSize], sealed[nonceSize:], pageAAD(pageID))
		if err != nil {
			return nil, ErrOpen
		}
		return pt, nil
	}
	epoch, ok := c.SealedEpoch(sealed)
	if !ok {
		return nil, ErrOpen
	}
	aead, err := c.epochAEAD(epoch)
	if err != nil {
		return nil, err
	}
	nonceSize := aead.NonceSize()
	pt, err := aead.Open(nil, sealed[:nonceSize], sealed[nonceSize:], pageAAD(pageID))
	if err != nil {
		return nil, ErrOpen
	}
	return pt, nil
}

func (c *EpochAESGCM) SealedEpoch(sealed []byte) (uint32, bool) {
	if len(sealed) < c.Overhead() {
		return 0, false
	}
	return binary.BigEndian.Uint32(sealed[:4]), true
}

func (c *EpochAESGCM) Overhead() int { return c.raw.NonceSize() + c.raw.Overhead() }

func (c *EpochAESGCM) Name() string { return "aes-gcm-ctr" }

// Plaintext is a pass-through cipher for tests and debugging. It provides no
// confidentiality or integrity and must never be used in production. Its
// layout mirrors EpochAESGCM without the encryption: node pages carry the
// 12-byte epoch || counter nonce in front of the plaintext, and Seal is the
// page-0 header path (a zero nonce).
type Plaintext struct{}

const plaintextNonce = 12

// Seal handles only page 0, as in EpochAESGCM.
func (Plaintext) Seal(pageID uint64, plaintext []byte) ([]byte, error) {
	if pageID != 0 {
		return nil, fmt.Errorf("cipher: plaintext cipher requires SealEpoch for page %d", pageID)
	}
	return append(make([]byte, plaintextNonce, plaintextNonce+len(plaintext)), plaintext...), nil
}

func (Plaintext) SealEpoch(_ uint64, epoch uint32, counter uint64, plaintext []byte) ([]byte, error) {
	out := make([]byte, plaintextNonce, plaintextNonce+len(plaintext))
	binary.BigEndian.PutUint32(out[:4], epoch)
	binary.BigEndian.PutUint64(out[4:], counter)
	return append(out, plaintext...), nil
}

func (Plaintext) Open(_ uint64, sealed []byte) ([]byte, error) {
	if len(sealed) < plaintextNonce {
		return nil, ErrOpen
	}
	return append([]byte(nil), sealed[plaintextNonce:]...), nil
}

func (Plaintext) SealedEpoch(sealed []byte) (uint32, bool) {
	if len(sealed) < plaintextNonce {
		return 0, false
	}
	return binary.BigEndian.Uint32(sealed[:4]), true
}

func (Plaintext) Overhead() int { return plaintextNonce }

func (Plaintext) Name() string { return "plaintext" }
