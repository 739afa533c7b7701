// Command perfbench is the repository's benchmark. It runs one workload
// against a live ekbtreed over pkg/ekbtree/wire and prints the end-to-end
// metrics (-trace 0), or additionally replays the same seeded op streams
// in-process through timed layer wrappers and prints the per-layer ledger
// (-trace 1). Every reply is checked; an oracle violation or an unclean
// drain exits non-zero without a result. The last line of standard output
// is the result as JSON. See README.md.
//
// run.sh builds ekbtreed and this command from the checkout and runs it:
//
//	bash perfbench/run.sh --workload cold-mixed --seed 7 --seconds 8 --trace 0
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload: hot-read, cold-mixed or scan-window")
	seed := flag.Int64("seed", 1, "seed the op streams are generated from")
	seconds := flag.Int("seconds", 8, "length of each measured window in seconds")
	trace := flag.Int("trace", 0, "1 reports the per-layer ledger instead of the end-to-end metrics")
	serverBin := flag.String("server", "", "ekbtreed binary to benchmark")
	work := flag.String("work", ".bench_build", "directory for data files and span dumps")
	flag.Parse()

	w, err := findWorkload(*name)
	if err == nil && *serverBin == "" {
		err = fmt.Errorf("-server is required")
	}
	if err == nil && (*seconds < 1 || *trace < 0 || *trace > 1) {
		err = fmt.Errorf("-seconds must be positive and -trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	// The client gets the same two cores as the server it shares them with.
	runtime.GOMAXPROCS(conns)
	cfg := config{w: w, seed: *seed, window: time.Duration(*seconds) * time.Second, trace: *trace == 1, server: *serverBin, work: *work}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	m, sub, err := tenantMaterial()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(cfg.work, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	live, err := liveRun(cfg, m, sub, dir)
	if err != nil {
		return err
	}
	attempted, failed := live.win.ops()
	attempted += failed
	title := fmt.Sprintf("%s seed=%d window=%v", cfg.w.name, cfg.seed, cfg.window)
	if !cfg.trace {
		declared, report, err := endToEnd(cfg.w, live)
		if err != nil {
			return err
		}
		printReport(os.Stdout, title+" end to end", report)
		return printResult(os.Stdout, declared, attempted, failed)
	}
	in, err := inProcess(cfg, m, sub, dir)
	if err != nil {
		return err
	}
	for _, win := range []window{in.traced, in.untraced} {
		a, f := win.ops()
		attempted, failed = attempted+a+f, failed+f
	}
	ms := perLayer(live, in)
	printReport(os.Stdout, title+" per layer", ms)
	return printResult(os.Stdout, ms, attempted, failed)
}
