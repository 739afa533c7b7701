package main

import (
	"bytes"
	"fmt"
	"sync/atomic"

	"github.com/paper-repro/ekbtree/pkg/ekbtree"
	"github.com/paper-repro/ekbtree/pkg/ekbtree/wire"
)

// oracle knows what every key must read back as; any mismatch is a
// violation that fails the run (it is never counted as a failed op).
//
// In a point mix every key has one owner, connection id%conns, and only the
// owner writes it. acked is the newest version the owner saw acknowledged
// and issued the newest it sent, so a Get must return a version in [acked
// before the Get was sent, issued after its reply]: exactly acked for the
// owner, and exactly acked for anyone once a failed Put has been superseded.
//
// In scan-window the single batcher numbers its batches; after k batches the
// live keys are exactly [k*batchKeys, keys+k*batchKeys), every one at
// version 1.
type oracle struct {
	w      *workload
	sub    ekbtree.Substituter
	acked  []atomic.Uint32
	issued []atomic.Uint32

	batchesAcked  atomic.Uint32
	batchesIssued atomic.Uint32
}

func newOracle(w *workload, sub ekbtree.Substituter) *oracle {
	o := &oracle{w: w, sub: sub}
	if !w.scan {
		o.acked = make([]atomic.Uint32, w.keys)
		o.issued = make([]atomic.Uint32, w.keys)
		for i := range o.acked {
			o.acked[i].Store(1)
			o.issued[i].Store(1)
		}
	}
	return o
}

// writerOf is who must have written version of key id.
func (o *oracle) writerOf(id, version uint32) uint8 {
	switch {
	case version <= 1 && (!o.w.scan || int(id) < o.w.keys):
		return writerPreload
	case o.w.scan:
		return connWriter(batcherConn)
	default:
		return connWriter(int(id) % conns)
	}
}

func (o *oracle) checkValue(id uint32, val []byte, lo, hi uint32) error {
	h, err := parseValue(val)
	if err != nil {
		return fmt.Errorf("key %d: %v", id, err)
	}
	if h.id != id {
		return fmt.Errorf("key %d returned the value of key %d", id, h.id)
	}
	if h.version < lo || h.version > hi {
		return fmt.Errorf("key %d at version %d, want [%d, %d]", id, h.version, lo, hi)
	}
	if want := o.writerOf(id, h.version); h.writer != want {
		return fmt.Errorf("key %d version %d written by %d, want %d", id, h.version, h.writer, want)
	}
	return nil
}

func (o *oracle) checkGet(id uint32, val []byte, found bool, lo, hi uint32) error {
	if !found {
		return fmt.Errorf("get key %d: not found", id)
	}
	return o.checkValue(id, val, lo, hi)
}

// checkSubKey verifies that sub is the substitute of key id.
func (o *oracle) checkSubKey(id uint32, sub []byte) error {
	var kb [keyLen]byte
	if want := o.sub.Substitute(appendKey(kb[:0], id)); !bytes.Equal(sub, want) {
		return fmt.Errorf("key %d listed under a substitute that is not its own", id)
	}
	return nil
}

// checkScan verifies one windowed scan that sought to seekID's substitute
// while the batcher had between k0 and k1 batches committed. Entries must be
// strictly ascending by substitute, start at or after the seek point, and
// carry self-verifying values of keys live in some snapshot k0..k1. Only the
// first entry's substitute is recomputed here, to keep the checker's CPU off
// the measured loop; readback recomputes all of them.
func (o *oracle) checkScan(seekID uint32, entries []wire.Entry, k0, k1 uint32) error {
	var kb [keyLen]byte
	seek := o.sub.Substitute(appendKey(kb[:0], seekID))
	lo, hi := k0*batchKeys, uint32(o.w.keys)+k1*batchKeys
	for i, e := range entries {
		if i == 0 && bytes.Compare(e.SubKey, seek) < 0 {
			return fmt.Errorf("scan from key %d started before its seek point", seekID)
		}
		if i > 0 && bytes.Compare(entries[i-1].SubKey, e.SubKey) >= 0 {
			return fmt.Errorf("scan from key %d not strictly ascending at entry %d", seekID, i)
		}
		h, err := parseValue(e.Value)
		if err != nil {
			return fmt.Errorf("scan from key %d entry %d: %v", seekID, i, err)
		}
		if h.id < lo || h.id >= hi {
			return fmt.Errorf("scan returned key %d, live keys are within [%d, %d)", h.id, lo, hi)
		}
		if err := o.checkValue(h.id, e.Value, 1, 1); err != nil {
			return err
		}
		if i == 0 {
			if err := o.checkSubKey(h.id, e.SubKey); err != nil {
				return err
			}
		}
	}
	return nil
}

// state is what a full readback found: versions[i] is the version of key
// base+i.
type state struct {
	base     uint32
	versions []uint32
}

func (s state) equal(t state) bool {
	if s.base != t.base || len(s.versions) != len(t.versions) {
		return false
	}
	for i := range s.versions {
		if s.versions[i] != t.versions[i] {
			return false
		}
	}
	return true
}

// readback streams every entry of the tree through scanAll and checks that
// the tree holds exactly the live key set, each key once, under its own
// substitute, in ascending substitute order, at the version the oracle
// expects.
func (o *oracle) readback(scanAll func(visit func(sub, val []byte) error) error) (state, error) {
	n := o.w.keys
	var base uint32
	if o.w.scan {
		base = o.batchesAcked.Load() * batchKeys
	}
	s := state{base: base, versions: make([]uint32, n)}
	var prev []byte
	count := 0
	err := scanAll(func(sub, val []byte) error {
		if prev != nil && bytes.Compare(prev, sub) >= 0 {
			return fmt.Errorf("readback not strictly ascending at entry %d", count)
		}
		prev = append(prev[:0], sub...)
		h, err := parseValue(val)
		if err != nil {
			return fmt.Errorf("readback entry %d: %v", count, err)
		}
		if h.id < base || h.id >= base+uint32(n) {
			return fmt.Errorf("readback found key %d, live keys are [%d, %d)", h.id, base, base+uint32(n))
		}
		lo, hi := uint32(1), uint32(1)
		if !o.w.scan {
			lo, hi = o.acked[h.id].Load(), o.issued[h.id].Load()
		}
		if err := o.checkValue(h.id, val, lo, hi); err != nil {
			return err
		}
		if err := o.checkSubKey(h.id, sub); err != nil {
			return err
		}
		if s.versions[h.id-base] != 0 {
			return fmt.Errorf("readback found key %d twice", h.id)
		}
		s.versions[h.id-base] = h.version
		count++
		return nil
	})
	if err != nil {
		return state{}, err
	}
	if count != n {
		return state{}, fmt.Errorf("readback found %d keys, want %d", count, n)
	}
	return s, nil
}
