// Command falcon runs hands-off crowdsourced entity matching over two CSV
// files — the paper's "EM as a cloud service" front end (Example 1): submit
// two tables and a budget, get back the matching row pairs.
//
// The crowd is pluggable:
//
//	-oracle-key <col>   simulate a crowd from a shared key column (demo
//	                    mode; the column is hidden from the learner)
//	-interactive        you are the crowd: answer match questions on stdin
//	                    (an in-house "crowd of one", as in §11.1)
//	-error-rate <p>     simulated worker error rate on top of the oracle
//
// Example:
//
//	falcon -a dblp.csv -b citeseer.csv -oracle-key paper_id -budget 300 \
//	       -out matches.csv
//
// The train/serve split runs the same pipeline in two phases:
//
//	falcon train -a dblp.csv -b citeseer.csv -oracle-key paper_id \
//	             -out matcher.falcon
//	falcon serve -artifact matcher.falcon -addr :8080
//	curl -d '{"record": {"title": "..."}}' http://localhost:8080/match/one
//
// train pays the crowd once and freezes everything matching needs into a
// versioned artifact file; serve loads it and answers point lookups with no
// crowd, no training, and no locks on the hot path. serve is also the EM
// cloud service daemon of Example 1 — the one server main: every HTTP route
// (job submission, artifact build/download/hot-swap, point matching) is up
// whether or not an artifact was given.
//
//	falcon serve -addr :8080 -job-timeout 30m
//	curl -F tableA=@a.csv -F tableB=@b.csv -F oracle_key=isbn \
//	     -F budget=300 http://localhost:8080/jobs
//	curl http://localhost:8080/jobs/job-1
//	curl http://localhost:8080/jobs/job-1/matches
package main

import (
	"bufio"
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"falcon"
	"falcon/internal/metrics"
	"falcon/internal/model"
	"falcon/internal/service"
)

func main() {
	var err error
	if len(os.Args) > 1 && !strings.HasPrefix(os.Args[1], "-") {
		switch os.Args[1] {
		case "train":
			err = runTrain(os.Args[2:])
		case "serve":
			err = runServe(os.Args[2:])
		default:
			err = fmt.Errorf("unknown subcommand %q (want train or serve; flat flags run a one-shot batch match)", os.Args[1])
		}
	} else {
		err = run()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "falcon:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		aPath       = flag.String("a", "", "CSV file for table A (required)")
		bPath       = flag.String("b", "", "CSV file for table B (required)")
		oracleKey   = flag.String("oracle-key", "", "column whose equality defines ground truth (simulation mode); hidden from the learner")
		interactive = flag.Bool("interactive", false, "answer match questions yourself on stdin")
		errorRate   = flag.Float64("error-rate", 0, "simulated crowd error rate (0..1)")
		budget      = flag.Float64("budget", 0, "crowd budget in dollars (0 = only the $349.60 structural cap)")
		seed        = flag.Int64("seed", 1, "random seed")
		sampleN     = flag.Int("sample", 0, "sample_pairs size (0 = 1M default)")
		maxIter     = flag.Int("max-iter", 30, "active-learning iteration cap")
		outPath     = flag.String("out", "", "write matches as CSV (default: stdout summary only)")
		noMask      = flag.Bool("no-masking", false, "disable the §10.2 masking optimizations")
		timeout     = flag.Duration("timeout", 0, "abort the run after this much wall time (0 = no limit)")
		workers     = flag.Int("workers", 0, "worker goroutines for cluster tasks (0 = NumCPU; results are identical either way)")
		gantt       = flag.Bool("gantt", false, "print an ASCII Gantt chart of the simulated timeline")
		explain     = flag.Bool("explain", false, "print the executed EM plan (RDBMS EXPLAIN style)")
	)
	flag.Parse()
	if *aPath == "" || *bPath == "" {
		flag.Usage()
		return fmt.Errorf("both -a and -b are required")
	}
	if *oracleKey == "" && !*interactive {
		return fmt.Errorf("choose a crowd: -oracle-key <col> or -interactive")
	}

	a, err := falcon.ReadCSVFile(*aPath)
	if err != nil {
		return err
	}
	b, err := falcon.ReadCSVFile(*bPath)
	if err != nil {
		return err
	}
	fmt.Printf("A: %s (%d rows), B: %s (%d rows)\n", a.Name(), a.Len(), b.Name(), b.Len())

	labeler, opts, err := buildCrowd(a, b, *oracleKey, *interactive, *errorRate)
	if err != nil {
		return err
	}

	opts = append(opts,
		falcon.WithSeed(*seed),
		falcon.WithBudget(*budget),
		falcon.WithMaxIterations(*maxIter),
	)
	if *sampleN > 0 {
		opts = append(opts, falcon.WithSampleSize(*sampleN))
	}
	if *noMask {
		opts = append(opts, falcon.WithoutMasking())
	}
	if *workers > 0 {
		opts = append(opts, falcon.WithWorkers(*workers))
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// The CLI reports real elapsed wall time alongside the simulated times;
	// it never feeds back into the deterministic pipeline.
	//falcon:allow determinism user-facing wall-clock timer, not simulation state
	start := time.Now()
	report, err := falcon.MatchContext(ctx, a, b, labeler, opts...)
	if err != nil {
		if ctx.Err() != nil {
			return fmt.Errorf("aborted after %s: %w", *timeout, err)
		}
		return err
	}

	//falcon:allow determinism same user-facing wall-clock timer as the time.Now above; never feeds the pipeline
	fmt.Printf("\n%d matches found (wall clock %s)\n", len(report.Matches), time.Since(start).Round(time.Millisecond))
	fmt.Printf("plan: blocking=%v strategy=%s rules=%d/%d candidates=%s\n",
		report.UsedBlocking, report.Strategy, report.RulesRetained, report.RulesLearned,
		metrics.FmtCount(int64(report.CandidatePairs)))
	fmt.Printf("crowd: $%.2f for %d questions\n", report.CrowdCost, report.Questions)
	fmt.Printf("simulated times: total=%s crowd=%s machine=%s (masked %s, unmasked %s)\n",
		metrics.FmtDuration(report.TotalTime), metrics.FmtDuration(report.CrowdTime),
		metrics.FmtDuration(report.MachineTime), metrics.FmtDuration(report.MaskedMachineTime),
		metrics.FmtDuration(report.UnmaskedMachineTime))

	if *explain {
		fmt.Printf("\n%s", report.Explain())
	}
	if *gantt {
		fmt.Printf("\n%s", report.Gantt())
	}

	if *outPath != "" {
		if err := writeMatches(*outPath, a, b, report.Matches); err != nil {
			return err
		}
		fmt.Printf("matches written to %s\n", *outPath)
	}
	return nil
}

// buildCrowd wires up the labeler and crowd options shared by the batch and
// train modes: either the interactive crowd-of-one or the key-column oracle.
func buildCrowd(a, b *falcon.Table, oracleKey string, interactive bool, errorRate float64) (falcon.Labeler, []falcon.Option, error) {
	if interactive {
		labeler := &stdinLabeler{in: bufio.NewScanner(os.Stdin), aCols: a.Columns(), bCols: b.Columns()}
		return labeler, []falcon.Option{falcon.WithInHouseCrowd(0)}, nil
	}
	if oracleKey == "" {
		return nil, nil, fmt.Errorf("choose a crowd: -oracle-key <col> or -interactive")
	}
	aKey, bKey := colIndex(a.Columns(), oracleKey), colIndex(b.Columns(), oracleKey)
	if aKey < 0 || bKey < 0 {
		return nil, nil, fmt.Errorf("oracle key %q missing from a table", oracleKey)
	}
	labeler := falcon.LabelerFunc(func(ar, br []string) bool {
		av := strings.TrimSpace(strings.ToLower(ar[aKey]))
		bv := strings.TrimSpace(strings.ToLower(br[bKey]))
		return av != "" && av == bv
	})
	return labeler, []falcon.Option{falcon.WithCrowdErrorRate(errorRate)}, nil
}

// runTrain is the train phase: run the full crowd workflow once and freeze
// the learned matcher plus everything serving needs into an artifact file.
func runTrain(args []string) error {
	fs := flag.NewFlagSet("falcon train", flag.ExitOnError)
	var (
		aPath       = fs.String("a", "", "CSV file for table A (required)")
		bPath       = fs.String("b", "", "CSV file for table B (required)")
		oracleKey   = fs.String("oracle-key", "", "column whose equality defines ground truth (simulation mode)")
		interactive = fs.Bool("interactive", false, "answer match questions yourself on stdin")
		errorRate   = fs.Float64("error-rate", 0, "simulated crowd error rate (0..1)")
		budget      = fs.Float64("budget", 0, "crowd budget in dollars")
		seed        = fs.Int64("seed", 1, "random seed")
		sampleN     = fs.Int("sample", 0, "sample_pairs size (0 = 1M default)")
		maxIter     = fs.Int("max-iter", 30, "active-learning iteration cap")
		outPath     = fs.String("out", "matcher.falcon", "artifact output file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *aPath == "" || *bPath == "" {
		fs.Usage()
		return fmt.Errorf("train: both -a and -b are required")
	}
	a, err := falcon.ReadCSVFile(*aPath)
	if err != nil {
		return err
	}
	b, err := falcon.ReadCSVFile(*bPath)
	if err != nil {
		return err
	}
	labeler, opts, err := buildCrowd(a, b, *oracleKey, *interactive, *errorRate)
	if err != nil {
		return err
	}
	opts = append(opts,
		falcon.WithSeed(*seed),
		falcon.WithBudget(*budget),
		falcon.WithMaxIterations(*maxIter),
	)
	if *sampleN > 0 {
		opts = append(opts, falcon.WithSampleSize(*sampleN))
	}
	report, err := falcon.Match(a, b, labeler, opts...)
	if err != nil {
		return err
	}
	if !report.HasArtifact() {
		return fmt.Errorf("train: run learned no matcher; nothing to save")
	}
	f, err := os.Create(*outPath)
	if err != nil {
		return err
	}
	if err := report.SaveArtifact(f); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	st, err := os.Stat(*outPath)
	if err != nil {
		return err
	}
	fmt.Printf("trained on %d×%d rows: %d matches, crowd $%.2f for %d questions\n",
		a.Len(), b.Len(), len(report.Matches), report.CrowdCost, report.Questions)
	fmt.Printf("artifact written to %s (%d bytes)\n", *outPath, st.Size())
	return nil
}

// runServe runs the HTTP service: job submission and the artifact lifecycle
// are always available; with -artifact the frozen artifact is published at
// boot, so POST /match/one answers point lookups immediately — no crowd, no
// training.
func runServe(args []string) error {
	fs := flag.NewFlagSet("falcon serve", flag.ExitOnError)
	var (
		addr       = fs.String("addr", ":8080", "listen address")
		artPath    = fs.String("artifact", "", "artifact file written by `falcon train` (optional; server starts empty and accepts PUT /artifacts/current)")
		jobTimeout = fs.Duration("job-timeout", 0, "cancel POST /jobs runs lasting longer than this (0 = no limit)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var opts []service.Option
	if *jobTimeout > 0 {
		opts = append(opts, service.WithJobTimeout(*jobTimeout))
	}
	srv := service.New(opts...)
	if *artPath != "" {
		f, err := os.Open(*artPath)
		if err != nil {
			return err
		}
		art, err := model.LoadArtifact(f)
		_ = f.Close() // read-only; LoadArtifact already saw every byte
		if err != nil {
			return fmt.Errorf("loading %s: %w", *artPath, err)
		}
		if err := srv.Publish(art); err != nil {
			return fmt.Errorf("publishing %s: %w", *artPath, err)
		}
		log.Printf("published artifact %s", *artPath)
	} else {
		log.Printf("no -artifact given; waiting for PUT /artifacts/current")
	}
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}
	log.Printf("falcon EM service listening on %s", *addr)
	return hs.ListenAndServe()
}

func colIndex(cols []string, name string) int {
	for i, c := range cols {
		if strings.EqualFold(c, name) {
			return i
		}
	}
	return -1
}

// stdinLabeler implements the interactive crowd of one.
type stdinLabeler struct {
	in           *bufio.Scanner
	aCols, bCols []string
	asked        int
}

// Label implements falcon.Labeler by asking the terminal.
func (s *stdinLabeler) Label(a, b []string) bool {
	s.asked++
	fmt.Printf("\n--- question %d: do these rows match? ---\n", s.asked)
	for i, c := range s.aCols {
		fmt.Printf("  A.%-15s %s\n", c, a[i])
	}
	for i, c := range s.bCols {
		fmt.Printf("  B.%-15s %s\n", c, b[i])
	}
	for {
		fmt.Print("match? [y/n]: ")
		if !s.in.Scan() {
			return false
		}
		switch strings.ToLower(strings.TrimSpace(s.in.Text())) {
		case "y", "yes":
			return true
		case "n", "no":
			return false
		}
	}
}

func writeMatches(path string, a, b *falcon.Table, matches []falcon.Pair) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	header := []string{"a_row", "b_row"}
	for _, c := range a.Columns() {
		header = append(header, "a_"+c)
	}
	for _, c := range b.Columns() {
		header = append(header, "b_"+c)
	}
	if err := w.Write(header); err != nil {
		return err
	}
	for _, m := range matches {
		rec := []string{fmt.Sprint(m.ARow), fmt.Sprint(m.BRow)}
		rec = append(rec, a.Row(m.ARow)...)
		rec = append(rec, b.Row(m.BRow)...)
		if err := w.Write(rec); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}
