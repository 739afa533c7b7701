package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// spanName says what a span timed: a façade operation (the first numKinds
// names, in opKind order) or one call into a layer.
type spanName uint8

const (
	spanGet spanName = iota
	spanPut
	spanScan
	spanBatch
	spanSubstitute
	spanSubstituteRange
	spanSeal
	spanSealEpoch
	spanSealedEpoch
	spanOpen
	spanReadPage
	spanWritePage
	spanAlloc
	spanFree
	spanRoot
	spanSetRoot
	spanMeta
	spanSetMeta
	spanCommitPages
	spanSync
	spanClose
	spanSpace
	spanVacuum
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"ekbtree.Get", "ekbtree.Put", "ekbtree.Scan", "ekbtree.Batch",
	"keysub.Substitute", "keysub.SubstituteRange",
	"cipher.Seal", "cipher.SealEpoch", "cipher.SealedEpoch", "cipher.Open",
	"store.ReadPage", "store.WritePage", "store.Alloc", "store.Free", "store.Root", "store.SetRoot",
	"store.Meta", "store.SetMeta", "store.CommitPages", "store.Sync", "store.Close", "store.Space", "store.Vacuum",
}

// opBits is the width of the op id inside a span's tag; the name takes the
// bits above it.
const opBits = 26

// span is one timed interval, packed into 16 bytes so a traced window can
// hold millions in memory. A façade span is the root of its op. A layer
// span's parent is the façade span with the same op id; op id 0 marks a
// layer call made outside any op, from one of the program's background
// goroutines.
type span struct {
	start int64  // nanotime
	dur   uint32 // ns, saturating
	tag   uint32 // name<<opBits | op id
}

func (s span) name() spanName { return spanName(s.tag >> opBits) }
func (s span) op() uint32     { return s.tag & (1<<opBits - 1) }

// spansPerWorker bounds a worker's span buffer (32 MB). A traced window
// ends early once any worker fills its buffer, so tracing never allocates
// inside the window.
const spansPerWorker = 2 << 20

// tracer records spans from the layer wrappers and the workers. Each worker
// goroutine is locked to its OS thread, so a wrapper call finds the op that
// caused it by its thread id; a call from any other thread is background
// work. While off, a wrapper costs one atomic load.
type tracer struct {
	on   atomic.Bool
	full atomic.Bool

	workers [conns]traceSlot

	bgMu sync.Mutex
	bg   []span

	// pageBytes sums the sealed pages handed to CommitPages while on.
	pageBytes atomic.Int64
}

// traceSlot belongs to one worker. spans is appended only from the worker's
// own thread and read only after the window has ended. It lives in mem, a
// mapping outside the Go heap: a heap buffer this size would double the
// heap goal and change how often the program under test collects garbage.
type traceSlot struct {
	tid   atomic.Int64
	op    atomic.Uint32
	mem   []byte
	spans []span
}

// begin returns the start time for a layer call, or -1 while tracing is off.
func (t *tracer) begin() int64 {
	if !t.on.Load() {
		return -1
	}
	return nanotime()
}

// end records a layer call that began at start; deferred by every wrapper
// method as `defer t.end(name, t.begin())`.
func (t *tracer) end(name spanName, start int64) {
	if start < 0 {
		return
	}
	s := mkSpan(name, 0, start, nanotime())
	tid := int64(syscall.Gettid())
	for i := range t.workers {
		w := &t.workers[i]
		if w.tid.Load() == tid {
			s.tag |= w.op.Load()
			t.push(w, s)
			return
		}
	}
	t.bgMu.Lock()
	t.bg = append(t.bg, s)
	t.bgMu.Unlock()
}

func mkSpan(name spanName, op uint32, start, end int64) span {
	d := end - start
	if d > 1<<32-1 {
		d = 1<<32 - 1
	}
	return span{start: start, dur: uint32(d), tag: uint32(name)<<opBits | op&(1<<opBits-1)}
}

func (t *tracer) push(w *traceSlot, s span) {
	if len(w.spans) == cap(w.spans) {
		t.full.Store(true)
		return
	}
	w.spans = append(w.spans, s)
}

// attach locks the calling worker goroutine to its thread and registers the
// thread as slot's; detach undoes it.
func (t *tracer) attach(slot int) {
	runtime.LockOSThread()
	t.workers[slot].tid.Store(int64(syscall.Gettid()))
}

func (t *tracer) detach(slot int) {
	t.workers[slot].tid.Store(0)
	runtime.UnlockOSThread()
}

// start maps fresh span buffers and turns recording on; stop turns it off.
func (t *tracer) start() error {
	t.release()
	for i := range t.workers {
		w := &t.workers[i]
		mem, err := syscall.Mmap(-1, 0, spansPerWorker*int(unsafe.Sizeof(span{})),
			syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			t.release()
			return fmt.Errorf("map span buffer: %w", err)
		}
		w.mem, w.spans = mem, unsafe.Slice((*span)(unsafe.Pointer(&mem[0])), spansPerWorker)[:0]
	}
	t.bgMu.Lock()
	t.bg = t.bg[:0]
	t.bgMu.Unlock()
	t.full.Store(false)
	t.pageBytes.Store(0)
	t.on.Store(true)
	return nil
}

func (t *tracer) stop() { t.on.Store(false) }

// release unmaps the span buffers.
func (t *tracer) release() {
	for i := range t.workers {
		w := &t.workers[i]
		if w.mem != nil {
			syscall.Munmap(w.mem)
		}
		w.mem, w.spans = nil, nil
	}
}

// ledger is what the spans of one traced window add up to.
type ledger struct {
	ops      [numKinds]int
	lat      [numKinds][]int64 // façade span durations, ns
	selfNs   [numKinds]int64   // façade duration minus its layer spans, summed
	opensIn  [numKinds]int     // cipher opens inside ops of each kind
	calls    [numSpanNames]int // layer calls, background ones included
	callNs   [numSpanNames]int64
	totalOps int
}

// ledger walks the recorded spans. A worker's layer spans precede the
// façade span of their op in its buffer (each is pushed when it ends), so
// one pass attributes them. Layer spans of an op whose façade span did not
// fit are dropped with it.
func (t *tracer) ledger() ledger {
	var l ledger
	for i := range t.workers {
		var childNs int64
		var calls [numSpanNames]int
		var callNs [numSpanNames]int64
		for _, s := range t.workers[i].spans {
			n := s.name()
			if n >= spanName(numKinds) {
				calls[n]++
				callNs[n] += int64(s.dur)
				childNs += int64(s.dur)
				continue
			}
			k := opKind(n)
			l.ops[k]++
			l.totalOps++
			l.lat[k] = append(l.lat[k], int64(s.dur))
			l.selfNs[k] += int64(s.dur) - childNs
			l.opensIn[k] += calls[spanOpen]
			for j := range calls {
				l.calls[j] += calls[j]
				l.callNs[j] += callNs[j]
			}
			childNs, calls, callNs = 0, [numSpanNames]int{}, [numSpanNames]int64{}
		}
	}
	t.bgMu.Lock()
	defer t.bgMu.Unlock()
	for _, s := range t.bg {
		l.calls[s.name()]++
		l.callNs[s.name()] += int64(s.dur)
	}
	return l
}

// writeSpans writes every recorded span to path: a header line naming the
// span names in order, then per span its worker (0xff for background),
// name, op id, start and duration in ns, little-endian.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(bw, "perfbench spans v1 names=%q record=worker:u8,name:u8,op:u32,start_ns:i64,dur_ns:u32\n", spanNames)
	var rec [1 + 1 + 4 + 8 + 4]byte
	put := func(worker uint8, s span) {
		rec[0], rec[1] = worker, uint8(s.name())
		binary.LittleEndian.PutUint32(rec[2:], s.op())
		binary.LittleEndian.PutUint64(rec[6:], uint64(s.start))
		binary.LittleEndian.PutUint32(rec[14:], s.dur)
		bw.Write(rec[:])
	}
	for i := range t.workers {
		for _, s := range t.workers[i].spans {
			put(uint8(i), s)
		}
	}
	t.bgMu.Lock()
	for _, s := range t.bg {
		put(0xff, s)
	}
	t.bgMu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
