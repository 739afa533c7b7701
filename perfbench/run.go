package main

import (
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"time"

	"github.com/paper-repro/ekbtree/pkg/ekbtree"
	"github.com/paper-repro/ekbtree/pkg/ekbtree/wire"
)

const (
	// An end-to-end run sets up at least minSetups times, and keeps setting
	// up until setupBudget has been spent (at most maxSetups times), so a
	// small keyspace's short set-up is timed often enough for a steady
	// median; setup_s is the median.
	minSetups    = 3
	maxSetups    = 25
	setupBudget  = 2 * time.Second
	warmup       = time.Second
	preloadChunk = 500
	// clientGCPercent is the client's GOGC during the live run.
	clientGCPercent = 800
)

type config struct {
	w      *workload
	seed   int64
	window time.Duration
	trace  bool
	server string // ekbtreed binary
	work   string // scratch directory inside the checkout
}

// liveResult is what one run against a live ekbtreed measured.
type liveResult struct {
	setup    []time.Duration
	amp      []float64 // space amplification after each set-up
	slices   []window
	win      window     // every slice merged
	proc     procSample // ekbtreed's CPU and syscalls during the window
	rssMB    float64    // median resident set during the window
	peakMB   float64    // VmHWM at the end of the window
	ampAfter float64    // space amplification after the window
}

// inprocResult is what the in-process replay measured.
type inprocResult struct {
	traced, untraced window
	led              ledger
	pageBytes        int64
	io               procSample // this process's writes during the traced window
	mallocs, bytes   uint64     // heap allocations during the untraced window
	gcFrac           float64
	stats            ekbtree.Stats
}

func tenantMaterial() (ekbtree.Material, ekbtree.Substituter, error) {
	master, err := hex.DecodeString(masterHex)
	if err != nil {
		return ekbtree.Material{}, nil, err
	}
	m, err := ekbtree.DeriveMaterial(master)
	if err != nil {
		return ekbtree.Material{}, nil, err
	}
	// The oracle's own copy of the tenant's substituter, to check that every
	// listed entry sits under its key's substitute.
	sub, err := ekbtree.NewHMACSubstituter(m.KeysubSecret, 24)
	return m, sub, err
}

// preloadOrder is the order the keyspace is loaded in: shuffled by the
// seed, so the tree grows as it does under random inserts.
func preloadOrder(w *workload, seed int64) []uint32 {
	ids := make([]uint32, w.keys)
	for i := range ids {
		ids[i] = uint32(i)
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	return ids
}

// preload writes every key at version 1 in order, in batches, over one
// connection: a second one makes it no faster (concurrent random batches
// conflict) and makes the file layout depend on thread timing.
func preload(be backend, order []uint32) error {
	for ids := range slices.Chunk(order, preloadChunk) {
		ops := make([]wire.BatchOp, len(ids))
		for j, id := range ids {
			val := make([]byte, valueSize)
			fillValue(val, id, writerPreload, 1)
			ops[j] = wire.BatchOp{Key: appendKey(nil, id), Value: val}
		}
		if err := be.batch(ops); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	return nil
}

// spaceAmp is the tenant's file bytes on disk per live key+value byte.
func spaceAmp(w *workload, data string) (float64, error) {
	fileBytes, err := tenantBytes(data)
	return float64(fileBytes) / float64(w.keys*(keyLen+valueSize)), err
}

func closeAll(cs []*wire.Client) {
	for _, c := range cs {
		c.Close()
	}
}

// setUp provisions the tenant in data, then starts ekbtreed, connects, and
// preloads and syncs the keyspace; the time from server start to the
// finished Sync is the set-up time.
func setUp(cfg config, m ekbtree.Material, data string, order []uint32) (*server, []*wire.Client, time.Duration, error) {
	if err := os.MkdirAll(data, 0o755); err != nil {
		return nil, nil, 0, err
	}
	if err := provision(cfg.server, data); err != nil {
		return nil, nil, 0, err
	}
	start := time.Now()
	srv, err := startServer(cfg.server, data)
	if err != nil {
		return nil, nil, 0, err
	}
	var clients []*wire.Client
	fail := func(err error) (*server, []*wire.Client, time.Duration, error) {
		closeAll(clients)
		srv.kill()
		return nil, nil, 0, err
	}
	for i := 0; i < conns; i++ {
		c, err := srv.dial(m)
		if err != nil {
			return fail(err)
		}
		clients = append(clients, c)
	}
	if err := preload(wireBackend{clients[0]}, order); err != nil {
		return fail(err)
	}
	if err := clients[0].Sync(); err != nil {
		return fail(fmt.Errorf("sync after preload: %w", err))
	}
	return srv, clients, time.Since(start), nil
}

// moreSetups reports whether a run sets up again after n set-ups that took
// spent in all. A traced run sets up once: it reports no setup_s.
func moreSetups(trace bool, n int, spent time.Duration) bool {
	if trace {
		return n == 0
	}
	return n < minSetups || n < maxSetups && spent < setupBudget
}

// liveRun measures the workload against ekbtreed over the wire. After the
// window it syncs, reads every key back, stops the server with SIGTERM
// (which must drain cleanly), restarts it and reads every key back again.
func liveRun(cfg config, m ekbtree.Material, sub ekbtree.Substituter, dir string) (res liveResult, err error) {
	// The client allocates in the wire codec on every request. A high GC
	// target keeps its collections from competing with the server for the
	// two cores; the in-process replay runs at the default, so the
	// program's own GC is measured as it is.
	defer debug.SetGCPercent(debug.SetGCPercent(clientGCPercent))
	var srv *server
	var clients []*wire.Client
	defer func() {
		closeAll(clients)
		if srv != nil {
			srv.kill()
		}
	}()
	order := preloadOrder(cfg.w, cfg.seed)
	var data string
	var spent time.Duration
	for i := 0; moreSetups(cfg.trace, i, spent); i++ {
		if srv != nil {
			// An earlier set-up was only timed: drain it and drop its files.
			closeAll(clients)
			clients = nil
			if err := srv.stop(); err != nil {
				return res, err
			}
			srv = nil
			if err := os.RemoveAll(data); err != nil {
				return res, err
			}
		}
		data = filepath.Join(dir, fmt.Sprintf("live%d", i))
		var took time.Duration
		srv, clients, took, err = setUp(cfg, m, data, order)
		if err != nil {
			return res, fmt.Errorf("set-up: %w", err)
		}
		amp, err := spaceAmp(cfg.w, data)
		if err != nil {
			return res, err
		}
		res.setup, res.amp = append(res.setup, took), append(res.amp, amp)
		spent += took
	}

	or := newOracle(cfg.w, sub)
	ws := make([]*worker, conns)
	for c := range ws {
		ws[c] = newWorker(c, wireBackend{clients[c]}, newStream(cfg.w, cfg.seed, c), or, nil)
	}
	if _, err := runWindow(ws, warmup, 0); err != nil {
		return res, err
	}
	collect(ws, 0)
	before, err := readProc(srv.pid())
	if err != nil {
		return res, err
	}
	// Resident memory is sampled between slices and the median reported:
	// the peak swings with GC timing.
	var rss []float64
	res.slices, err = measure(ws, cfg.window, func() error {
		mb, err := statusMB(srv.pid(), "VmRSS")
		rss = append(rss, mb)
		return err
	})
	if err != nil {
		return res, err
	}
	res.rssMB = median(rss)
	after, err := readProc(srv.pid())
	if err != nil {
		return res, err
	}
	for _, s := range res.slices {
		res.win.merge(s)
	}
	res.proc = procSample{cpu: after.cpu - before.cpu, syscr: after.syscr - before.syscr, syscw: after.syscw - before.syscw}
	if res.peakMB, err = statusMB(srv.pid(), "VmHWM"); err != nil {
		return res, err
	}

	if cfg.w.scan {
		if err := ws[batcherConn].settle(); err != nil {
			return res, err
		}
	}
	if err := clients[0].Sync(); err != nil {
		return res, fmt.Errorf("sync after the window: %w", err)
	}
	if res.ampAfter, err = spaceAmp(cfg.w, data); err != nil {
		return res, err
	}
	first, err := or.readback(wireBackend{clients[0]}.scanAll)
	if err != nil {
		return res, fmt.Errorf("readback: %w", err)
	}
	closeAll(clients)
	clients = nil
	if err := srv.stop(); err != nil {
		return res, err
	}
	srv = nil

	if srv, err = startServer(cfg.server, data); err != nil {
		return res, fmt.Errorf("restart: %w", err)
	}
	c, err := srv.dial(m)
	if err != nil {
		return res, fmt.Errorf("restart: %w", err)
	}
	clients = []*wire.Client{c}
	second, err := or.readback(wireBackend{c}.scanAll)
	if err != nil {
		return res, fmt.Errorf("readback after restart: %w", err)
	}
	if !first.equal(second) {
		return res, fmt.Errorf("state after restart differs from the state before it")
	}
	closeAll(clients)
	clients = nil
	err = srv.stop()
	srv = nil
	return res, err
}

// openTree opens a tree the way ekbtreed opens a tenant: the layers
// Material.Options builds, grouped durability with the default flush
// window, one shard and the default cache. Every layer is wrapped.
func openTree(path string, m ekbtree.Material, tr *tracer) (*ekbtree.Tree, error) {
	sub, err := ekbtree.NewHMACSubstituter(m.KeysubSecret, 24)
	if err != nil {
		return nil, err
	}
	nc, err := ekbtree.NewEpochAESGCMCipher(m.CipherKey)
	if err != nil {
		return nil, err
	}
	st, err := ekbtree.NewFileStoreConfig(path, ekbtree.DurabilityGrouped, 0)
	if err != nil {
		return nil, err
	}
	t, err := ekbtree.Open(ekbtree.Options{
		Substituter: wrapSubstituter(sub, tr),
		Cipher:      wrapCipher(nc, tr),
		Store:       wrapStore(st, tr),
	})
	if err != nil {
		st.Close()
		return nil, err
	}
	return t, nil
}

// newReplay opens a wrapped tree at path, preloads it, and returns the
// workers that replay the seed's op streams against it.
func newReplay(cfg config, m ekbtree.Material, sub ekbtree.Substituter, path string, tr *tracer) (*ekbtree.Tree, []*worker, error) {
	t, err := openTree(path, m, tr)
	if err != nil {
		return nil, nil, err
	}
	bes := []backend{&treeBackend{t: t}, &treeBackend{t: t}}
	if err := preload(bes[0], preloadOrder(cfg.w, cfg.seed)); err != nil {
		t.Close()
		return nil, nil, err
	}
	if err := t.Sync(); err != nil {
		t.Close()
		return nil, nil, err
	}
	or := newOracle(cfg.w, sub)
	ws := make([]*worker, conns)
	for c := range ws {
		ws[c] = newWorker(c, bes[c], newStream(cfg.w, cfg.seed, c), or, tr)
	}
	return t, ws, nil
}

func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// inProcess replays the seed's op streams against a wrapped in-process
// tree for the run length: a traced half, whose spans give the per-layer
// ledger, and an untraced half with the same wrappers installed, which
// gives the allocation and GC figures and the baseline for the tracing
// overhead.
func inProcess(cfg config, m ekbtree.Material, sub ekbtree.Substituter, dir string) (res inprocResult, err error) {
	tr := &tracer{}
	t, ws, err := newReplay(cfg, m, sub, filepath.Join(dir, "inproc.ekbt"), tr)
	if err != nil {
		return res, err
	}
	defer func() {
		if cerr := t.Close(); err == nil {
			err = cerr
		}
	}()
	if _, err := runWindow(ws, warmup, 0); err != nil {
		return res, err
	}
	collect(ws, 0)

	// untraced runs a quarter of the run length with tracing off and adds
	// what it measured to res.
	var gcSecs, totalSecs float64
	untraced := func() error {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		gc0, total0 := gcCPU()
		elapsed, err := runWindow(ws, cfg.window/4, 0)
		if err != nil {
			return err
		}
		gc1, total1 := gcCPU()
		runtime.ReadMemStats(&ms1)
		res.untraced.merge(collect(ws, elapsed))
		res.mallocs += ms1.Mallocs - ms0.Mallocs
		res.bytes += ms1.TotalAlloc - ms0.TotalAlloc
		gcSecs, totalSecs = gcSecs+gc1-gc0, totalSecs+total1-total0
		return nil
	}
	// The traced half runs between the two untraced quarters, so a drift in
	// the host's speed over the replay cancels out of the tracing overhead.
	if err := untraced(); err != nil {
		return res, err
	}
	io0, err := readProc("self")
	if err != nil {
		return res, err
	}
	if err := tr.start(); err != nil {
		return res, err
	}
	defer tr.release()
	elapsed, err := runWindow(ws, cfg.window/2, 0)
	tr.stop()
	if err != nil {
		return res, err
	}
	io1, err := readProc("self")
	if err != nil {
		return res, err
	}
	res.traced = collect(ws, elapsed)
	res.io = procSample{syscw: io1.syscw - io0.syscw, wchar: io1.wchar - io0.wchar}
	res.led, res.pageBytes = tr.ledger(), tr.pageBytes.Load()
	if err := tr.writeSpans(filepath.Join(cfg.work, "spans-"+cfg.w.name+".bin")); err != nil {
		return res, err
	}
	tr.release()
	if err := untraced(); err != nil {
		return res, err
	}
	res.gcFrac = ratio(gcSecs, totalSecs)

	if cfg.w.scan {
		if err := ws[batcherConn].settle(); err != nil {
			return res, err
		}
	}
	// Stats walks and decodes every page, so it runs once, after both
	// windows; the conflict and retry counters it reports cover the whole
	// replay.
	if res.stats, err = t.Stats(); err != nil {
		return res, err
	}
	if _, err := ws[0].or.readback(ws[0].be.scanAll); err != nil {
		return res, fmt.Errorf("in-process readback: %w", err)
	}
	return res, nil
}
