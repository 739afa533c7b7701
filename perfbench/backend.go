package main

import (
	"fmt"

	"github.com/paper-repro/ekbtree/pkg/ekbtree"
	"github.com/paper-repro/ekbtree/pkg/ekbtree/wire"
)

// backend is what one worker sends its operations to: a wire connection to
// ekbtreed, or the in-process tree the traced run replays against.
type backend interface {
	get(key []byte) ([]byte, bool, error)
	put(key, value []byte) error
	// scan opens a snapshot cursor at from's substitute, reads up to n
	// entries into dst[:0] and closes the cursor.
	scan(from []byte, n int, dst []wire.Entry) ([]wire.Entry, error)
	batch(ops []wire.BatchOp) error
	// scanAll streams every entry in substitute order.
	scanAll(visit func(sub, val []byte) error) error
}

type wireBackend struct{ c *wire.Client }

func (b wireBackend) get(key []byte) ([]byte, bool, error) { return b.c.Get(key) }
func (b wireBackend) put(key, value []byte) error          { return b.c.Put(key, value) }
func (b wireBackend) batch(ops []wire.BatchOp) error       { return b.c.BatchCommit(ops) }

func (b wireBackend) scan(from []byte, n int, dst []wire.Entry) ([]wire.Entry, error) {
	id, err := b.c.CursorOpen(from, nil)
	if err != nil {
		return dst[:0], err
	}
	entries, done, err := b.c.CursorNext(id, n)
	if err != nil {
		b.c.CursorClose(id)
		return dst[:0], err
	}
	if !done {
		if err := b.c.CursorClose(id); err != nil {
			return dst[:0], err
		}
	}
	return append(dst[:0], entries...), nil
}

func (b wireBackend) scanAll(visit func(sub, val []byte) error) error {
	id, err := b.c.CursorOpen(nil, nil)
	if err != nil {
		return err
	}
	for {
		entries, done, err := b.c.CursorNext(id, 4096)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if err := visit(e.SubKey, e.Value); err != nil {
				if !done {
					b.c.CursorClose(id)
				}
				return err
			}
		}
		if done {
			return nil
		}
	}
}

type treeBackend struct {
	t *ekbtree.Tree
	// arena holds the copied bytes of the last scan: cursor views die with
	// the cursor. lens holds each entry's key and value lengths.
	arena []byte
	lens  []int
}

func (b *treeBackend) get(key []byte) ([]byte, bool, error) { return b.t.Get(key) }
func (b *treeBackend) put(key, value []byte) error          { return b.t.Put(key, value) }

func (b *treeBackend) batch(ops []wire.BatchOp) error {
	bt := b.t.NewBatch()
	for _, o := range ops {
		var err error
		if o.Del {
			err = bt.Delete(o.Key)
		} else {
			err = bt.Put(o.Key, o.Value)
		}
		if err != nil {
			bt.Discard()
			return err
		}
	}
	return bt.Commit()
}

func (b *treeBackend) scan(from []byte, n int, dst []wire.Entry) ([]wire.Entry, error) {
	b.arena, b.lens = b.arena[:0], b.lens[:0]
	c := b.t.CursorRange(from, nil)
	for ok := c.First(); ok && len(b.lens) < 2*n; ok = c.Next() {
		b.arena = append(append(b.arena, c.Key()...), c.Value()...)
		b.lens = append(b.lens, len(c.Key()), len(c.Value()))
	}
	err := c.Err()
	if cerr := c.Close(); err == nil {
		err = cerr
	}
	// Slice the entries only now: the arena may have moved while growing.
	dst, off := dst[:0], 0
	for i := 0; i < len(b.lens); i += 2 {
		k, v := off+b.lens[i], off+b.lens[i]+b.lens[i+1]
		dst = append(dst, wire.Entry{SubKey: b.arena[off:k:k], Value: b.arena[k:v:v]})
		off = v
	}
	return dst, err
}

func (b *treeBackend) scanAll(visit func(sub, val []byte) error) error {
	c := b.t.Cursor()
	defer c.Close()
	for ok := c.First(); ok; ok = c.Next() {
		if err := visit(c.Key(), c.Value()); err != nil {
			return err
		}
	}
	if err := c.Err(); err != nil {
		return fmt.Errorf("readback cursor: %w", err)
	}
	return nil
}
