package main

import "github.com/paper-repro/ekbtree/pkg/ekbtree"

// The wrappers below time every call into a layer from outside the
// program. The engine and façade type-assert optional extensions (epoch
// sealing, store footprint and vacuum, range substitution) and change
// behaviour when one is missing, so each wrap function returns a value with
// exactly the optional methods of what it wraps: a wrapper that dropped
// SealEpoch would put the tree on the legacy random-nonce path and the
// traced run would measure a different program.

type substituter struct {
	inner ekbtree.Substituter
	tr    *tracer
}

func (s *substituter) Substitute(key []byte) []byte {
	defer s.tr.end(spanSubstitute, s.tr.begin())
	return s.inner.Substitute(key)
}

func (s *substituter) Width() int   { return s.inner.Width() }
func (s *substituter) Name() string { return s.inner.Name() }

type rangeSubstituter interface {
	SubstituteRange(from, to []byte) (lo, hi []byte)
}

type substituteRange struct {
	inner rangeSubstituter
	tr    *tracer
}

func (s substituteRange) SubstituteRange(from, to []byte) (lo, hi []byte) {
	defer s.tr.end(spanSubstituteRange, s.tr.begin())
	return s.inner.SubstituteRange(from, to)
}

func wrapSubstituter(inner ekbtree.Substituter, tr *tracer) ekbtree.Substituter {
	s := &substituter{inner: inner, tr: tr}
	if r, ok := inner.(rangeSubstituter); ok {
		return struct {
			*substituter
			substituteRange
		}{s, substituteRange{r, tr}}
	}
	return s
}

type nodeCipher struct {
	inner ekbtree.NodeCipher
	tr    *tracer
}

func (c *nodeCipher) Seal(pageID uint64, plaintext []byte) ([]byte, error) {
	defer c.tr.end(spanSeal, c.tr.begin())
	return c.inner.Seal(pageID, plaintext)
}

func (c *nodeCipher) Open(pageID uint64, sealed []byte) ([]byte, error) {
	defer c.tr.end(spanOpen, c.tr.begin())
	return c.inner.Open(pageID, sealed)
}

func (c *nodeCipher) Overhead() int { return c.inner.Overhead() }
func (c *nodeCipher) Name() string  { return c.inner.Name() }

type epochSealer interface {
	SealEpoch(pageID uint64, epoch uint32, counter uint64, plaintext []byte) ([]byte, error)
}

type sealEpoch struct {
	inner epochSealer
	tr    *tracer
}

func (c sealEpoch) SealEpoch(pageID uint64, epoch uint32, counter uint64, plaintext []byte) ([]byte, error) {
	defer c.tr.end(spanSealEpoch, c.tr.begin())
	return c.inner.SealEpoch(pageID, epoch, counter, plaintext)
}

type epochReader interface {
	SealedEpoch(sealed []byte) (uint32, bool)
}

type sealedEpoch struct {
	inner epochReader
	tr    *tracer
}

func (c sealedEpoch) SealedEpoch(sealed []byte) (uint32, bool) {
	defer c.tr.end(spanSealedEpoch, c.tr.begin())
	return c.inner.SealedEpoch(sealed)
}

func wrapCipher(inner ekbtree.NodeCipher, tr *tracer) ekbtree.NodeCipher {
	c := &nodeCipher{inner: inner, tr: tr}
	se, hasSeal := inner.(epochSealer)
	er, hasRead := inner.(epochReader)
	switch {
	case hasSeal && hasRead:
		return struct {
			*nodeCipher
			sealEpoch
			sealedEpoch
		}{c, sealEpoch{se, tr}, sealedEpoch{er, tr}}
	case hasSeal:
		return struct {
			*nodeCipher
			sealEpoch
		}{c, sealEpoch{se, tr}}
	case hasRead:
		return struct {
			*nodeCipher
			sealedEpoch
		}{c, sealedEpoch{er, tr}}
	}
	return c
}

// pageStore times every PageStore method but SealMark and SetSealMark, which
// pass through the embedded interface untimed: their mark type is internal
// to the ekbtree module and cannot be named here. The engine calls them once
// per seal-counter reservation, not per operation.
type pageStore struct {
	ekbtree.PageStore
	tr *tracer
}

func (s *pageStore) ReadPage(id uint64) ([]byte, error) {
	defer s.tr.end(spanReadPage, s.tr.begin())
	return s.PageStore.ReadPage(id)
}

func (s *pageStore) WritePage(id uint64, page []byte) error {
	defer s.tr.end(spanWritePage, s.tr.begin())
	return s.PageStore.WritePage(id, page)
}

func (s *pageStore) Alloc() (uint64, error) {
	defer s.tr.end(spanAlloc, s.tr.begin())
	return s.PageStore.Alloc()
}

func (s *pageStore) Free(id uint64) error {
	defer s.tr.end(spanFree, s.tr.begin())
	return s.PageStore.Free(id)
}

func (s *pageStore) Root() (uint64, error) {
	defer s.tr.end(spanRoot, s.tr.begin())
	return s.PageStore.Root()
}

func (s *pageStore) SetRoot(id uint64) error {
	defer s.tr.end(spanSetRoot, s.tr.begin())
	return s.PageStore.SetRoot(id)
}

func (s *pageStore) Meta() ([]byte, error) {
	defer s.tr.end(spanMeta, s.tr.begin())
	return s.PageStore.Meta()
}

func (s *pageStore) SetMeta(meta []byte) error {
	defer s.tr.end(spanSetMeta, s.tr.begin())
	return s.PageStore.SetMeta(meta)
}

func (s *pageStore) CommitPages(writes map[uint64][]byte, root uint64, frees []uint64) error {
	start := s.tr.begin()
	defer s.tr.end(spanCommitPages, start)
	if start >= 0 {
		n := 0
		for _, p := range writes {
			n += len(p)
		}
		s.tr.pageBytes.Add(int64(n))
	}
	return s.PageStore.CommitPages(writes, root, frees)
}

func (s *pageStore) Sync() error {
	defer s.tr.end(spanSync, s.tr.begin())
	return s.PageStore.Sync()
}

func (s *pageStore) Close() error {
	defer s.tr.end(spanClose, s.tr.begin())
	return s.PageStore.Close()
}

type spacer interface {
	Space() (fileBytes, liveBytes int64)
}

type space struct {
	inner spacer
	tr    *tracer
}

func (s space) Space() (fileBytes, liveBytes int64) {
	defer s.tr.end(spanSpace, s.tr.begin())
	return s.inner.Space()
}

type vacuumer interface {
	Vacuum(target int64) error
}

type vacuum struct {
	inner vacuumer
	tr    *tracer
}

func (s vacuum) Vacuum(target int64) error {
	defer s.tr.end(spanVacuum, s.tr.begin())
	return s.inner.Vacuum(target)
}

func wrapStore(inner ekbtree.PageStore, tr *tracer) ekbtree.PageStore {
	s := &pageStore{PageStore: inner, tr: tr}
	sp, hasSpace := inner.(spacer)
	va, hasVacuum := inner.(vacuumer)
	switch {
	case hasSpace && hasVacuum:
		return struct {
			*pageStore
			space
			vacuum
		}{s, space{sp, tr}, vacuum{va, tr}}
	case hasSpace:
		return struct {
			*pageStore
			space
		}{s, space{sp, tr}}
	case hasVacuum:
		return struct {
			*pageStore
			vacuum
		}{s, vacuum{va, tr}}
	}
	return s
}
