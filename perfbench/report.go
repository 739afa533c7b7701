package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"github.com/paper-repro/ekbtree/pkg/ekbtree"
)

// metric is one named figure of a run. note is printed beside it in the
// text report and says what it was computed from.
type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

// minBeyond is how many samples must lie beyond a percentile before it is
// reported.
const minBeyond = 10

// supports reports whether n samples put at least minBeyond beyond their
// q-quantile.
func supports(n int, q float64) bool {
	return n-int(math.Ceil(q*float64(n))) >= minBeyond
}

// percentile returns the q-quantile in µs of one op type's sorted latencies.
// A failed op counts as slower than every acknowledged one (it missed any
// latency limit) and reads as the whole window when the quantile lands on
// one. ok is false when the samples do not support the quantile.
func percentile(sorted []int64, failed int, q float64, win time.Duration) (us float64, ok bool) {
	n := len(sorted) + failed
	if !supports(n, q) {
		return 0, false
	}
	rank := max(int(math.Ceil(q*float64(n))), 1)
	if rank > len(sorted) {
		return float64(win) / 1e3, true
	}
	return float64(sorted[rank-1]) / 1e3, true
}

// slicedQuantile is the median, over groups of consecutive slices, of each
// group's q-quantile of op type k in µs. A group closes as soon as it
// supports the quantile, unless the slices after it could not support one
// on their own; those join it. So a quantile that one slice is too short to
// support is taken over several. ok is false when the whole window cannot
// support it.
func slicedQuantile(ss []window, k opKind, q float64) (us float64, ok bool) {
	samples := func(ss []window) (n int) {
		for _, s := range ss {
			n += len(s.lat[k]) + s.failed[k]
		}
		return n
	}
	var vals []float64
	var g window
	for i, s := range ss {
		g.merge(s)
		if !supports(samples([]window{g}), q) || i+1 < len(ss) && !supports(samples(ss[i+1:]), q) {
			continue
		}
		slices.Sort(g.lat[k])
		v, _ := percentile(g.lat[k], g.failed[k], q, g.elapsed)
		vals, g = append(vals, v), window{}
	}
	if len(vals) == 0 {
		return 0, false
	}
	return median(vals), true
}

// ratio is n/d, or 0 when nothing was measured.
func ratio[N, D int | int64 | uint64 | float64](n N, d D) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// roles names the op types a workload's read and write metrics are taken
// from: Get and Put in the point mixes, scan and batch in scan-window.
func roles(w *workload) (read, write opKind) {
	if w.scan {
		return opScan, opBatch
	}
	return opGet, opPut
}

// endToEnd returns the declared end-to-end metrics of a live run, and the
// same latencies again under their op-type names for the text report.
func endToEnd(w *workload, r liveResult) (declared, report []metric, err error) {
	win := r.win
	acked, failed := win.ops()
	rates := make([]float64, len(r.slices))
	for i, s := range r.slices {
		rates[i] = s.opsPerSec()
	}
	declared = append(declared, metric{"ops_per_s", median(rates), "1/s",
		fmt.Sprintf("median of %d slices; %d acknowledged ops in %.3fs", len(rates), acked, win.elapsed.Seconds())})
	report = append(report, declared[0])
	read, write := roles(w)
	for _, role := range []struct {
		name string
		k    opKind
	}{{"read", read}, {"write", write}} {
		// p99 is reported but not declared: across runs on a shared 2-core
		// host it spreads by more than any bound a regression check can use,
		// so p90 stands for the tail.
		for _, q := range []struct {
			name     string
			q        float64
			declared bool
		}{{"p50", 0.50, true}, {"p90", 0.90, true}, {"p99", 0.99, false}} {
			n := len(win.lat[role.k]) + win.failed[role.k]
			v, ok := slicedQuantile(r.slices, role.k, q.q)
			if !ok {
				return nil, nil, fmt.Errorf("%d %s samples cannot support a %s", n, kindNames[role.k], q.name)
			}
			note := fmt.Sprintf("n=%d", n)
			if q.declared {
				declared = append(declared, metric{role.name + "_" + q.name + "_us", v, "us", kindNames[role.k] + " " + note})
			}
			report = append(report, metric{kindNames[role.k] + "_" + q.name + "_us", v, "us", note})
		}
	}
	setups := make([]float64, len(r.setup))
	for i, d := range r.setup {
		setups[i] = d.Seconds()
	}
	tail := []metric{
		{"setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups %.3f", len(setups), setups)},
		{"space_amp", median(r.amp), "B/B", fmt.Sprintf("tenant file bytes / live key+value bytes after set-up, median; %.3f after the window", r.ampAfter)},
		{"server_rss_mb", r.rssMB, "MiB", fmt.Sprintf("ekbtreed VmRSS, median of per-slice samples; peak VmHWM %.1f MiB", r.peakMB)},
	}
	declared = append(declared, tail...)
	report = append(report, metric{"failed_frac", ratio(failed, acked+failed), "ratio",
		fmt.Sprintf("%d of %d attempted", failed, acked+failed)})
	report = append(report, tail...)
	return declared, report, nil
}

// perLayer returns the per-layer ledger of a traced run.
func perLayer(live liveResult, in inprocResult) []metric {
	l := in.led
	for k := range l.lat {
		slices.Sort(l.lat[k])
	}
	for k := range live.win.lat {
		slices.Sort(live.win.lat[k])
	}
	liveOps, _ := live.win.ops()
	untracedOps, _ := in.untraced.ops()
	ops := l.totalOps
	p50 := func(k opKind) float64 {
		v, _ := percentile(l.lat[k], 0, 0.5, 0)
		return v
	}
	overhead := func(k opKind) float64 {
		e2e, ok := percentile(live.win.lat[k], live.win.failed[k], 0.5, live.win.elapsed)
		if !ok || l.ops[k] == 0 {
			return 0
		}
		return e2e - p50(k)
	}
	calls := func(names ...spanName) (n int, ns int64) {
		for _, s := range names {
			n += l.calls[s]
			ns += l.callNs[s]
		}
		return n, ns
	}
	subN, subNs := calls(spanSubstitute, spanSubstituteRange)
	openN, openNs := calls(spanOpen)
	sealN, sealNs := calls(spanSeal, spanSealEpoch)
	readN, readNs := calls(spanReadPage)
	commitN, commitNs := calls(spanCommitPages)
	overheadFrac := 0.0
	if u := in.untraced.opsPerSec(); u > 0 {
		overheadFrac = 1 - in.traced.opsPerSec()/u
	}
	nOps := fmt.Sprintf("%d traced ops", ops)
	ms := []metric{
		{"ekbtreed.cpu_us_per_op", ratio(live.proc.cpu.Microseconds(), liveOps), "us/op", fmt.Sprintf("%d live ops", liveOps)},
		{"ekbtreed.write_syscalls_per_op", ratio(live.proc.syscw, liveOps), "1/op", ""},
		{"ekbtreed.read_syscalls_per_op", ratio(live.proc.syscr, liveOps), "1/op", ""},
		{"ekbtreed.overhead_get_us", overhead(opGet), "us", "live get p50 - ekbtree.get_p50_us"},
		{"ekbtreed.overhead_scan_us", overhead(opScan), "us", "live scan p50 - ekbtree.scan_p50_us"},
	}
	for k := opKind(0); k < numKinds; k++ {
		ms = append(ms, metric{"ekbtree." + kindNames[k] + "_p50_us", p50(k), "us", fmt.Sprintf("n=%d", l.ops[k])})
	}
	ms = append(ms,
		metric{"ekbtree.allocs_per_op", ratio(in.mallocs, untracedOps), "1/op", fmt.Sprintf("%d untraced ops", untracedOps)},
		metric{"ekbtree.alloc_bytes_per_op", ratio(in.bytes, untracedOps), "B/op", ""},
		metric{"ekbtree.gc_cpu_frac", in.gcFrac, "ratio", "GC share of available CPU, untraced window"},
		metric{"keysub.calls_per_op", ratio(subN, ops), "1/op", nOps},
		metric{"keysub.ns_per_call", ratio(subNs, subN), "ns", fmt.Sprintf("n=%d", subN)},
	)
	for k := opKind(0); k < numKinds; k++ {
		ms = append(ms, metric{"engine.self_us_per_" + kindNames[k], ratio(float64(l.selfNs[k])/1e3, l.ops[k]), "us",
			"façade span minus its layer spans"})
	}
	ms = append(ms,
		metric{"engine.cache_misses_per_get", ratio(l.opensIn[opGet], l.ops[opGet]), "1/op",
			fmt.Sprintf("cipher opens inside Get spans; %d-page tree, %d-page cache", in.stats.Nodes, ekbtree.DefaultCachePages)},
		metric{"engine.conflicts_per_commit", ratio(in.stats.Conflicts, in.stats.Commits), "1/commit", fmt.Sprintf("%d commits", in.stats.Commits)},
		metric{"engine.retries_per_commit", ratio(in.stats.Retries, in.stats.Commits), "1/commit", ""},
		metric{"cipher.opens_per_op", ratio(openN, ops), "1/op", nOps},
		metric{"cipher.open_ns", ratio(openNs, openN), "ns", fmt.Sprintf("n=%d", openN)},
		metric{"cipher.seals_per_op", ratio(sealN, ops), "1/op", nOps},
		metric{"cipher.seal_ns", ratio(sealNs, sealN), "ns", fmt.Sprintf("n=%d", sealN)},
		metric{"store.reads_per_op", ratio(readN, ops), "1/op", nOps},
		metric{"store.read_ns", ratio(readNs, readN), "ns", fmt.Sprintf("n=%d", readN)},
		metric{"store.commits_per_op", ratio(commitN, ops), "1/op", nOps},
		metric{"store.commit_ns", ratio(commitNs, commitN), "ns", fmt.Sprintf("n=%d", commitN)},
		metric{"store.page_bytes_per_user_byte", ratio(in.pageBytes, in.traced.userBytes), "B/B", fmt.Sprintf("%d user bytes written", in.traced.userBytes)},
		metric{"store.file_bytes_written_per_user_byte", ratio(in.io.wchar, in.traced.userBytes), "B/B", "wchar of this process"},
		metric{"store.write_syscalls_per_commit", ratio(in.io.syscw, commitN), "1/commit", ""},
		metric{"trace.overhead_frac", overheadFrac, "ratio", fmt.Sprintf("traced %.0f vs untraced %.0f ops/s", in.traced.opsPerSec(), in.untraced.opsPerSec())},
	)
	return ms
}

func printReport(out io.Writer, title string, ms []metric) {
	fmt.Fprintln(out, title)
	for _, m := range ms {
		fmt.Fprintf(out, "  %-40s %14.4f %-9s %s\n", m.name, m.value, m.unit, m.note)
	}
}

// printResult writes the one-line JSON result the benchmark ends with.
func printResult(out io.Writer, ms []metric, attempted, failed int) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	for _, m := range ms {
		res.Metrics[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}
