// Command perfbench is the repository's benchmark. It boots a fixed
// tenant fleet (the gold MAS, Yelp and IMDB tenants plus a grown synth
// tenant with a write-ahead log) in one process, drives it over loopback
// HTTP through pkg/client, checks the answers and prints one JSON result
// line. See README.md in this directory for the workloads and metrics.
//
//	bash perfbench/run.sh --workload synth-cold --seed 7 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// Workload names.
const (
	wlGoldHot    = "gold-hot"
	wlSynthCold  = "synth-cold"
	wlSynthWrite = "synth-write"
)

// setupBoots is how many times a run boots the fleet; setup_s is the
// median boot.
const setupBoots = 5

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	wl := flag.String("workload", "", "workload: gold-hot, synth-cold or synth-write")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced layer ladder instead of the end-to-end measurement")
	dir := flag.String("dir", ".bench_build", "directory for run state and trace files")
	flag.Parse()
	switch *wl {
	case wlGoldHot, wlSynthCold, wlSynthWrite:
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *wl)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	runtime.GOMAXPROCS(min(conns, runtime.NumCPU()))

	runDir, err := filepath.Abs(filepath.Join(*dir, fmt.Sprintf("run-%d", os.Getpid())))
	if err == nil {
		err = os.MkdirAll(runDir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(runDir)

	b := &bench{wl: *wl, seed: *seed, dur: time.Duration(*seconds) * time.Second, dir: runDir}
	var res *result
	if *trace == 1 {
		tracePath := filepath.Join(*dir, "traces", fmt.Sprintf("%s-seed%d.json", *wl, *seed))
		res, err = b.traced(tracePath)
	} else {
		res, err = b.endToEnd()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// bench is one run's configuration and state.
type bench struct {
	wl   string
	seed uint64
	dur  time.Duration
	dir  string
	in   *inputs
	f    *fleet
	// acks are every acknowledged append to synth, in completion order.
	acks []ack
	// failures lists correctness-check failures.
	failures []string
}

func (b *bench) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	b.failures = append(b.failures, msg)
	fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
}

// info prints a human-readable line to stdout, ahead of the result line.
func info(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}

// setup generates the inputs and boots the fleet n times, returning each
// boot's duration; the last fleet stays up.
func (b *bench) setup(n int, tr *tracer) ([]float64, error) {
	in, err := generate(b.wl, b.seed)
	if err != nil {
		return nil, err
	}
	b.in = in
	info("workload=%s seed=%d stream=%s", b.wl, b.seed, fingerprint(in))
	bootDir := filepath.Join(b.dir, "boot")
	var times []float64
	for i := 0; i < n; i++ {
		if b.f != nil {
			if err := b.f.close(); err != nil {
				return nil, err
			}
			b.f = nil
		}
		if err := freshDir(bootDir); err != nil {
			return nil, err
		}
		runtime.GC()
		start := time.Now()
		f, err := bootFleet(in, bootDir, tr)
		if err != nil {
			return nil, err
		}
		times = append(times, time.Since(start).Seconds())
		b.f = f
	}
	snap := b.f.synth.Sys.Live().CurrentSnapshot()
	info("synth qfg: queries=%d fragments=%d edges=%d", snap.Queries(), snap.Vertices(), snap.Edges())
	return times, nil
}

// endToEnd is the untraced run: set-up, warm-up, the measured phase and
// the checks.
func (b *bench) endToEnd() (*result, error) {
	setups, err := b.setup(setupBoots, nil)
	if err != nil {
		return nil, err
	}
	defer b.f.close()
	ln, err := listen(b.f.srv.Handler())
	if err != nil {
		return nil, err
	}
	defer ln.stop()
	c, err := newClient(ln.base)
	if err != nil {
		return nil, err
	}
	if err := b.warmUp(c); err != nil {
		return nil, err
	}
	st, err := b.measure(c, b.dur, nil)
	if err != nil {
		return nil, err
	}
	rss := peakRSSMB()
	allocKB := float64(st.after.allocBytes-st.before.allocBytes) / 1024 / float64(max(st.completed(), 1))

	b.checkReads(c)
	appendLat := st.latencies(opAppend)
	if b.wl != wlSynthWrite {
		// The read workloads send no appends while they measure; their
		// append metrics come from the append probe.
		probe, err := b.appendProbe(c)
		if err != nil {
			return nil, err
		}
		appendLat = probe.latencies(opAppend)
		st.attempted += probe.attempted
		st.failed += probe.failed
		if st.firstErr == nil {
			st.firstErr = probe.firstErr
		}
	}
	b.checkWrites()
	if st.failed > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: first failure:", st.firstErr)
	}

	m := map[string]metric{
		"setup_s":          {median(setups), "s"},
		"throughput_rps":   {throughput(st), "1/s"},
		"translate_p50_ms": {ms(quantile(st.latencies(opTranslate), 0.50)), "ms"},
		"translate_p90_ms": {ms(quantile(st.latencies(opTranslate), 0.90)), "ms"},
		"map_p50_ms":       {ms(quantile(st.latencies(opMap), 0.50)), "ms"},
		"map_p90_ms":       {ms(quantile(st.latencies(opMap), 0.90)), "ms"},
		"infer_p50_ms":     {ms(quantile(st.latencies(opInfer), 0.50)), "ms"},
		"infer_p90_ms":     {ms(quantile(st.latencies(opInfer), 0.90)), "ms"},
		"append_p50_ms":    {ms(quantile(appendLat, 0.50)), "ms"},
		"append_p90_ms":    {ms(quantile(appendLat, 0.90)), "ms"},
		"rss_mb":           {rss, "MB"},
		"alloc_kb_per_req": {allocKB, "KiB"},
	}
	for o := opMap; o < opAppend; o++ {
		l := st.latencies(o)
		info("%s samples=%d p99=%.3fms p999=%.3fms", opNames[o], len(l), ms(quantile(l, 0.99)), ms(quantile(l, 0.999)))
	}
	info("append samples=%d p25=%.1fms p50=%.1fms p75=%.1fms p90=%.1fms p95=%.1fms", len(appendLat),
		ms(quantile(appendLat, 0.25)), ms(quantile(appendLat, 0.5)), ms(quantile(appendLat, 0.75)), ms(quantile(appendLat, 0.9)), ms(quantile(appendLat, 0.95)))
	kw, bags := workingSet(st.sent)
	info("loadgen: distinct keywords=%d bags=%d response-to-send gap p50=%.3fms p99=%.3fms", kw, bags, ms(quantile(st.gen, 0.5)), ms(quantile(st.gen, 0.99)))
	info("machine: %.1f%% of CPU time stolen by the host during the measured phase; %d GC cycles", stealPct(st.before, st.after), st.after.gcCycles-st.before.gcCycles)
	return &result{Correct: len(b.failures) == 0, Attempted: st.attempted, Failed: st.failed, Metrics: m}, nil
}

// throughput is completed requests per second: the median one-second
// window of a closed loop, or the achieved rate of an open loop.
func throughput(st *runStats) float64 {
	if len(st.windowRates) > 0 {
		return median(st.windowRates)
	}
	return float64(st.completed()) / st.elapsed.Seconds()
}
