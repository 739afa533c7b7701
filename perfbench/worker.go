package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/paper-repro/ekbtree/pkg/ekbtree/wire"
)

var clockEpoch = time.Now()

// nanotime is the monotonic clock every latency and span is read from.
func nanotime() int64 { return int64(time.Since(clockEpoch)) }

// worker is one closed-loop connection: it sends the next op of its stream
// only after the previous one returned, checks every reply against the
// oracle, and records the latency. A failed op is counted and the loop goes
// on; an oracle violation stops the run.
type worker struct {
	slot int
	be   backend
	st   *stream
	or   *oracle
	// tr is set in-process: the worker then records a façade span per op
	// and runs on a locked thread so layer spans find their op.
	tr    *tracer
	opSeq uint32

	rec window // what this worker recorded since the last collect

	key     []byte
	val     []byte
	entries []wire.Entry
	batch   []wire.BatchOp
	arena   []byte
}

func newWorker(slot int, be backend, st *stream, or *oracle, tr *tracer) *worker {
	return &worker{slot: slot, be: be, st: st, or: or, tr: tr, val: make([]byte, valueSize)}
}

func (w *worker) step() error {
	o := w.st.next()
	switch o.kind {
	case opGet:
		return w.get(o.id)
	case opPut:
		w.put(o.id)
		return nil
	case opScan:
		return w.scan(o.id)
	default:
		w.sendBatch()
		return nil
	}
}

// begin starts timing an op; finish ends it.
func (w *worker) begin() int64 {
	if w.tr != nil {
		w.opSeq++
		w.tr.workers[w.slot].op.Store(w.opSeq*conns + uint32(w.slot) + 1)
	}
	return nanotime()
}

func (w *worker) finish(k opKind, start int64, err error) {
	end := nanotime()
	if w.tr != nil {
		slot := &w.tr.workers[w.slot]
		if w.tr.on.Load() {
			w.tr.push(slot, mkSpan(spanName(k), slot.op.Load(), start, end))
		}
		slot.op.Store(0)
	}
	if err != nil {
		w.rec.failed[k]++
		return
	}
	w.rec.lat[k] = append(w.rec.lat[k], end-start)
}

func (w *worker) get(id uint32) error {
	w.key = appendKey(w.key[:0], id)
	lo := w.or.acked[id].Load()
	start := w.begin()
	val, found, err := w.be.get(w.key)
	w.finish(opGet, start, err)
	if err != nil {
		return nil
	}
	return w.or.checkGet(id, val, found, lo, w.or.issued[id].Load())
}

func (w *worker) put(id uint32) {
	w.key = appendKey(w.key[:0], id)
	v := w.or.issued[id].Load() + 1
	fillValue(w.val, id, connWriter(w.slot), v)
	w.or.issued[id].Store(v)
	start := w.begin()
	err := w.be.put(w.key, w.val)
	w.finish(opPut, start, err)
	if err == nil {
		w.or.acked[id].Store(v)
		w.rec.userBytes += int64(keyLen + valueSize)
	}
}

func (w *worker) scan(seekID uint32) error {
	w.key = appendKey(w.key[:0], seekID)
	k0 := w.or.batchesAcked.Load()
	start := w.begin()
	entries, err := w.be.scan(w.key, scanLen, w.entries)
	w.finish(opScan, start, err)
	w.entries = entries
	if err != nil {
		return nil
	}
	return w.or.checkScan(seekID, entries, k0, w.or.batchesIssued.Load())
}

// sendBatch commits the batcher's next batch: after k acknowledged batches
// it inserts keys [keys+k*batchKeys, +batchKeys) and deletes the batchKeys
// oldest, [k*batchKeys, +batchKeys). A failed batch is resent as is by the
// next call, which is safe because it is atomic and idempotent.
func (w *worker) sendBatch() {
	k := w.or.batchesAcked.Load()
	fresh, old := uint32(w.or.w.keys)+k*batchKeys, k*batchKeys
	w.arena, w.batch = w.arena[:0], w.batch[:0]
	for i := uint32(0); i < batchKeys; i++ {
		w.arena = appendKey(w.arena, fresh+i)
		w.arena = append(w.arena, make([]byte, valueSize)...)
		w.arena = appendKey(w.arena, old+i)
	}
	// Slice the ops only now: the arena may have moved while growing.
	const rec = 2*keyLen + valueSize
	for i := 0; i < batchKeys; i++ {
		b := w.arena[i*rec : (i+1)*rec]
		val := b[keyLen : keyLen+valueSize]
		fillValue(val, fresh+uint32(i), connWriter(batcherConn), 1)
		w.batch = append(w.batch,
			wire.BatchOp{Key: b[:keyLen], Value: val},
			wire.BatchOp{Key: b[keyLen+valueSize:], Del: true})
	}
	w.or.batchesIssued.Store(k + 1)
	start := w.begin()
	err := w.be.batch(w.batch)
	w.finish(opBatch, start, err)
	if err == nil {
		w.or.batchesAcked.Store(k + 1)
		w.rec.userBytes += int64(batchKeys * (keyLen + valueSize))
	}
}

// settle resends a scan-window batch left unacknowledged by a failure at
// the end of a window, so readback knows the exact live set.
func (w *worker) settle() error {
	for try := 0; w.or.batchesAcked.Load() != w.or.batchesIssued.Load(); try++ {
		if try == 3 {
			return fmt.Errorf("batch %d still failing after the window", w.or.batchesIssued.Load())
		}
		w.sendBatch()
	}
	return nil
}

// runWindow runs every worker for d, or until each has sent maxOps ops when
// maxOps > 0, or until a traced window's span buffers fill. It returns how
// long the window ran and the first oracle violation.
func runWindow(ws []*worker, d time.Duration, maxOps int) (time.Duration, error) {
	var stop atomic.Bool
	errs := make([]error, len(ws))
	begin := nanotime()
	deadline := begin + int64(d)
	var wg sync.WaitGroup
	for i, w := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if w.tr != nil {
				w.tr.attach(w.slot)
				defer w.tr.detach(w.slot)
			}
			for n := 0; maxOps <= 0 || n < maxOps; n++ {
				if stop.Load() || nanotime() >= deadline || (w.tr != nil && w.tr.full.Load()) {
					return
				}
				if err := w.step(); err != nil {
					errs[i] = fmt.Errorf("oracle violation on connection %d: %w", w.slot, err)
					stop.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return time.Duration(nanotime() - begin), errors.Join(errs...)
}

// sliceLen is the length of one slice of a live window. The end-to-end
// figures are taken per slice and the median over slices is reported, so a
// second in which the host stalls the run moves them little.
const sliceLen = time.Second

// measure runs the workers for d in slices of sliceLen, calls sample after
// each slice, and returns what each slice recorded.
func measure(ws []*worker, d time.Duration, sample func() error) ([]window, error) {
	var out []window
	for len(out) < int(d/sliceLen) {
		elapsed, err := runWindow(ws, sliceLen, 0)
		if err != nil {
			return nil, err
		}
		out = append(out, collect(ws, elapsed))
		if err := sample(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// window is what a set of workers recorded in one run of runWindow.
type window struct {
	elapsed time.Duration
	lat     [numKinds][]int64 // ns of each acknowledged op
	failed  [numKinds]int
	// userBytes is the key+value bytes of acknowledged Puts and batch
	// inserts.
	userBytes int64
}

// collect gathers and clears what the workers recorded in a window that
// ran for elapsed.
func collect(ws []*worker, elapsed time.Duration) window {
	win := window{elapsed: elapsed}
	for _, w := range ws {
		win.merge(w.rec)
		for k := range w.rec.lat {
			w.rec.lat[k] = w.rec.lat[k][:0]
		}
		w.rec.failed, w.rec.userBytes = [numKinds]int{}, 0
	}
	return win
}

// merge adds o's records to win.
func (win *window) merge(o window) {
	win.elapsed += o.elapsed
	for k := range win.lat {
		win.lat[k] = append(win.lat[k], o.lat[k]...)
		win.failed[k] += o.failed[k]
	}
	win.userBytes += o.userBytes
}

func (win window) ops() (acked, failed int) {
	for k := range win.lat {
		acked += len(win.lat[k])
		failed += win.failed[k]
	}
	return acked, failed
}

func (win window) opsPerSec() float64 {
	acked, _ := win.ops()
	return float64(acked) / win.elapsed.Seconds()
}
