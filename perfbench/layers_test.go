package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"github.com/paper-repro/ekbtree/pkg/ekbtree"
)

// The optional extensions the engine and façade type-assert for.
type optionals struct {
	substituteRange, sealEpoch, sealedEpoch, space, vacuum bool
}

func optionalsOf(v any) optionals {
	var o optionals
	_, o.substituteRange = v.(rangeSubstituter)
	_, o.sealEpoch = v.(epochSealer)
	_, o.sealedEpoch = v.(epochReader)
	_, o.space = v.(spacer)
	_, o.vacuum = v.(vacuumer)
	return o
}

// Fakes that carry one optional extension without the other.
type (
	sealEpochOnly struct{ ekbtree.NodeCipher }
	epochReadOnly struct{ ekbtree.NodeCipher }
	spaceOnly     struct{ ekbtree.PageStore }
	vacuumOnly    struct{ ekbtree.PageStore }
)

func (sealEpochOnly) SealEpoch(uint64, uint32, uint64, []byte) ([]byte, error) { return nil, nil }
func (epochReadOnly) SealedEpoch([]byte) (uint32, bool)                        { return 0, false }
func (spaceOnly) Space() (int64, int64)                                        { return 0, 0 }
func (vacuumOnly) Vacuum(int64) error                                          { return nil }

func TestWrappersKeepExactlyTheOptionalInterfaces(t *testing.T) {
	tr := &tracer{}
	secret := bytes.Repeat([]byte{7}, 32)
	hmacSub, err := ekbtree.NewHMACSubstituter(secret, 24)
	if err != nil {
		t.Fatal(err)
	}
	bucketed, err := ekbtree.NewBucketedSubstituter(secret, 24, 8)
	if err != nil {
		t.Fatal(err)
	}
	epoch, err := ekbtree.NewEpochAESGCMCipher(secret)
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := ekbtree.NewAESGCMCipher(secret)
	if err != nil {
		t.Fatal(err)
	}
	fileStore, err := ekbtree.NewFileStoreConfig(filepath.Join(t.TempDir(), "s.ekbt"), ekbtree.DurabilityGrouped, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fileStore.Close()
	mem := ekbtree.NewMemStore()

	check := func(name string, inner, wrapped any) {
		t.Helper()
		if got, want := optionalsOf(wrapped), optionalsOf(inner); got != want {
			t.Errorf("%s: wrapper has optional interfaces %+v, wrapped value has %+v", name, got, want)
		}
	}
	for _, s := range []ekbtree.Substituter{hmacSub, bucketed} {
		w := wrapSubstituter(s, tr)
		check(s.Name(), s, w)
		if w.Name() != s.Name() || w.Width() != s.Width() {
			t.Errorf("%s: wrapper reports %s/%d, want %s/%d", s.Name(), w.Name(), w.Width(), s.Name(), s.Width())
		}
	}
	for _, c := range []ekbtree.NodeCipher{epoch, legacy, sealEpochOnly{legacy}, epochReadOnly{legacy}} {
		w := wrapCipher(c, tr)
		check(fmt.Sprintf("%T", c), c, w)
		if w.Name() != c.Name() || w.Overhead() != c.Overhead() {
			t.Errorf("%T: wrapper reports %s/%d, want %s/%d", c, w.Name(), w.Overhead(), c.Name(), c.Overhead())
		}
	}
	for _, s := range []ekbtree.PageStore{fileStore, mem, spaceOnly{mem}, vacuumOnly{mem}} {
		check(fmt.Sprintf("%T", s), s, wrapStore(s, tr))
	}

	// The engine must see the epoch cipher through the wrapper: a tree on
	// it counts seals, a tree on the legacy random-nonce path does not.
	tree, err := ekbtree.Open(ekbtree.Options{
		Substituter: wrapSubstituter(hmacSub, tr),
		Cipher:      wrapCipher(epoch, tr),
		Store:       wrapStore(ekbtree.NewMemStore(), tr),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	if err := tree.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	st, err := tree.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Seals == 0 {
		t.Error("a tree on the wrapped epoch cipher issued no epoch seals")
	}
}

// finalState replays opsPerWorker ops of the seed's streams in-process and
// returns every key's Get result afterwards.
func finalState(t *testing.T, w *workload, traced bool, opsPerWorker int) []string {
	t.Helper()
	m, sub, err := tenantMaterial()
	if err != nil {
		t.Fatal(err)
	}
	tr := &tracer{}
	cfg := config{w: w, seed: 42}
	tree, ws, err := newReplay(cfg, m, sub, filepath.Join(t.TempDir(), "replay.ekbt"), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	if traced {
		if err := tr.start(); err != nil {
			t.Fatal(err)
		}
		defer tr.release()
	}
	_, err = runWindow(ws, time.Hour, opsPerWorker)
	tr.stop()
	if err != nil {
		t.Fatal(err)
	}
	if traced {
		if l := tr.ledger(); l.totalOps != conns*opsPerWorker || l.calls[spanSubstitute] == 0 {
			t.Fatalf("traced replay recorded %d ops and %d substitutions, want %d ops", l.totalOps, l.calls[spanSubstitute], conns*opsPerWorker)
		}
	}
	ids := w.keys + int(ws[0].or.batchesIssued.Load())*batchKeys
	out := make([]string, ids)
	for id := range out {
		v, found, err := tree.Get(appendKey(nil, uint32(id)))
		if err != nil {
			t.Fatal(err)
		}
		out[id] = fmt.Sprintf("%t %x", found, v)
	}
	return out
}

func TestTracedAndUntracedReplaysEndIdentical(t *testing.T) {
	for _, w := range []*workload{
		{name: "point", keys: 3000, putFrac: 0.5},
		{name: "scan", keys: 3000, scan: true},
	} {
		t.Run(w.name, func(t *testing.T) {
			plain := finalState(t, w, false, 1500)
			traced := finalState(t, w, true, 1500)
			for id := range plain {
				if plain[id] != traced[id] {
					t.Fatalf("key %d: untraced replay ends with %s, traced with %s", id, plain[id], traced[id])
				}
			}
		})
	}
}
