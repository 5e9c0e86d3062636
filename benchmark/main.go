// Command benchmark is the repository's one benchmark: it walks Falcon's life
// cycle — the hands-off crowdsourced run (what falcon.Match does), the
// crowd-free apply of the trained artifact, POST /match/one over a real
// socket, and PUT /artifacts/current — on inputs made from a seed, checks
// every answer, and prints the metrics BENCHMARK.json names. README.md says
// why each workload and metric exists.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEndUnits are the end-to-end metrics, as BENCHMARK.json lists them.
var endToEndUnits = map[string]string{
	"setup_s":        "s",
	"match_wall_s":   "s",
	"sim_total_s":    "sim_s",
	"crowd_cost_usd": "usd",
	"f1":             "ratio",
	"apply_wall_s":   "s",
	"peak_rss_mb":    "MiB",
	"http_qps":       "1/s",
	"http_p50_us":    "us",
	"http_p99_us":    "us",
	"swap_s":         "s",
}

func main() {
	maybeSetupChild()
	var (
		name    = flag.String("workload", "", "workload to run: songs_match, products_apply, songs_serve, songs_serve_swap")
		seed    = flag.Int64("seed", 1, "seed the inputs are made from (7 is the held-out seed)")
		secs    = flag.Float64("seconds", 15, "how long to measure")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics, span file")
		scale   = flag.String("scale", "full", "input scale: full, or tiny for the smoke test")
		record  = flag.String("record", "", "append this run's record (environment and metrics) to this JSON-lines file")
		compare = flag.Bool("compare", false, "compare two -record files given as arguments instead of running")
	)
	flag.Parse()
	if *compare {
		os.Exit(compareMain(flag.Args(), os.Stdout))
	}
	res, err := runWorkload(options{
		workload: *name, seed: *seed, seconds: *secs, trace: *trace != 0, scale: *scale, record: *record,
	}, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    string
	record   string
}

// outDir is where the run's scratch files and the span file go: inside the
// checkout, whether started from its root (the driver, the wrapper) or from
// benchmark/ itself (go test, go run .).
func outDir() string {
	if st, err := os.Stat("benchmark"); err == nil && st.IsDir() {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}

// runWorkload runs one workload and prints its metrics to w, the result
// object last. An error means the run could not be completed; a completed run
// with wrong answers returns a result with Correct false.
func runWorkload(o options, w io.Writer) (*result, error) {
	wl, err := findWorkload(o.scale, o.workload)
	if err != nil {
		return nil, err
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	out := outDir()
	dir := filepath.Join(out, "run-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer func() { _ = os.RemoveAll(dir) }() // scratch only; a leftover is harmless

	r := &run{w: wl, scale: o.scale, seed: o.seed, seconds: o.seconds, dir: dir}
	var metrics map[string]metric
	var detail map[string]any
	if o.trace {
		r.tr = newTracer(fmt.Sprintf("%s-seed%d", wl.name, o.seed))
		metrics, detail, err = r.traced(context.Background(), filepath.Join(out, "trace-"+wl.name+".json"))
	} else {
		metrics, detail, err = r.endToEnd(context.Background())
	}
	if err != nil {
		return nil, err
	}
	res := &result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics}
	env := environment(r, detail)
	if o.record != "" {
		if err := appendRecord(o.record, wl.name, o.trace, res, env); err != nil {
			return nil, err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	if _, err := io.WriteString(w, report(wl.name, res, env, r.notes)+string(line)+"\n"); err != nil {
		return nil, err
	}
	return res, nil
}

// setupRuns is how many times a run sets up; setup_s is their median.
const setupRuns = 3

// endToEnd is the untraced run: every end-to-end metric, tracing off.
func (r *run) endToEnd(ctx context.Context) (map[string]metric, map[string]any, error) {
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		d, err := runSetup(r.w, r.scale, r.dir)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, d.Seconds())
	}
	if err := r.loadInputs(); err != nil {
		return nil, nil, err
	}
	m, err := r.matchPhase(ctx, r.budget(r.w.matchShare), 3)
	if err != nil {
		return nil, nil, err
	}
	rssMatch := peakRSSMiB()
	runtime.GC()
	a, err := r.applyPhase(ctx, m, r.budget(r.w.applyShare))
	if err != nil {
		return nil, nil, err
	}
	rssApply := peakRSSMiB()
	runtime.GC()
	s, err := r.servePhase(ctx, m, r.budget(r.w.serveShare))
	if err != nil {
		return nil, nil, err
	}
	if len(s.swaps) == 0 {
		return nil, nil, fmt.Errorf("no artifact swap succeeded")
	}
	vals := map[string]float64{
		"setup_s":        median(setups),
		"match_wall_s":   median(seconds(m.walls)),
		"sim_total_s":    m.res.Timeline.Total.Seconds(),
		"crowd_cost_usd": m.res.Cost,
		"f1":             m.score.F1,
		"apply_wall_s":   median(seconds(a.walls)),
		"peak_rss_mb":    peakRSSMiB(),
		"http_qps":       s.qps,
		"http_p50_us":    s.p50us,
		"http_p99_us":    s.p99us,
		"swap_s":         median(seconds(s.swaps)),
	}
	metrics, err := withUnits(vals, endToEndUnits)
	if err != nil {
		return nil, nil, err
	}
	detail := map[string]any{
		"samples": map[string]int{
			"setup_s": len(setups), "match_wall_s": len(m.walls), "apply_wall_s": len(a.walls),
			"http_requests": s.requests, "http_p99_windows": s.windows, "swap_s": len(s.swaps),
		},
		"peak_rss_mb_after":  map[string]float64{"match": rssMatch, "apply": rssApply},
		"connections":        connections(),
		"apply_spill_wall_s": a.spillWall.Seconds(),
		"spill_dir":          a.spillDir,
		"spill_fs":           fsType(r.dir),
		"apply_f1_fresh":     a.freshF1,
		"apply_candidates":   a.candidates,
		"questions":          m.res.Questions,
		"strategy":           m.res.Strategy.String(),
	}
	return metrics, detail, nil
}

// withUnits pairs every metric a run must report with its measured value.
func withUnits(vals map[string]float64, units map[string]string) (map[string]metric, error) {
	out := map[string]metric{}
	for name, unit := range units {
		v, ok := vals[name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", name)
		}
		out[name] = metric{Value: v, Unit: unit}
	}
	return out, nil
}

// loadInputs reads what set-up left and generates the tables.
func (r *run) loadInputs() error {
	prev, err := loadSetup(r.dir)
	if err != nil {
		return fmt.Errorf("reading set-up output: %w", err)
	}
	r.prev = prev
	r.base = r.w.dataset(dataSeed)
	// Offset so that no seed applies the artifact to its own training tables.
	r.fresh = r.w.dataset(1000 + r.seed)
	return nil
}

// peakRSSMiB is the measuring process's resident-set high-water mark.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
