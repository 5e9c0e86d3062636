package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"falcon/internal/core"
	"falcon/internal/datagen"
	"falcon/internal/table"
)

// Set-up runs in a child process of the same binary and hands the measuring
// process only files, the way `falcon train` and `falcon serve` are separate
// processes in production: it trains the previous-generation artifact the
// swaps alternate with and records the per-row answers that artifact gives.
// Its wall-clock, process start included, is setup_s.

const setupEnv = "FALCON_BENCH_SETUP" // "<dir>|<workload>|<scale>" marks a set-up child

const (
	prevArtifactFile = "prev.falcon"
	prevRowsFile     = "prev.rows.json"
)

// maybeSetupChild runs the set-up and exits when the process was started as a
// set-up child; otherwise it returns.
func maybeSetupChild() {
	v := os.Getenv(setupEnv)
	if v == "" {
		return
	}
	parts := strings.Split(v, "|")
	if len(parts) != 3 {
		fmt.Fprintf(os.Stderr, "benchmark: malformed %s=%q\n", setupEnv, v)
		os.Exit(2)
	}
	w, err := findWorkload(parts[2], parts[1])
	if err == nil {
		err = setupChild(w, parts[0])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: set-up:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

func setupChild(w workload, dir string) error {
	d := w.dataset(dataSeed)
	res, err := train(context.Background(), w, d, trainSeedPrev, 90*time.Second)
	if err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, prevArtifactFile))
	if err != nil {
		return err
	}
	if err := res.Artifact.Save(f); err != nil {
		_ = f.Close() // the Save error is the one to report
		return fmt.Errorf("saving artifact: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	rows, err := json.Marshal(rowSets(res.Matches, d.A.Len()))
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, prevRowsFile), rows, 0o644)
}

// train is the hands-off run every phase shares: core.RunContext, the call
// falcon.MatchContext makes. datagen's truth is keyed by row pair and
// falcon.Labeler sees only values, so the harness passes Dataset.Oracle().
func train(ctx context.Context, w workload, d *datagen.Dataset, trainSeed int64, latency time.Duration) (*core.Result, error) {
	res, err := core.RunContext(ctx, d.A, d.B, d.Oracle(), w.trainOptions(trainSeed, latency))
	if err != nil {
		return nil, fmt.Errorf("training %s (seed %d): %w", w.name, trainSeed, err)
	}
	if res.Artifact == nil {
		return nil, fmt.Errorf("training %s (seed %d) produced no artifact", w.name, trainSeed)
	}
	return res, nil
}

// rowSets turns a match list into, per A row, the sorted B rows it matches —
// what POST /match/one must answer for that row.
func rowSets(matches []table.Pair, aRows int) [][]int {
	out := make([][]int, aRows)
	for _, p := range matches {
		out[p.A] = append(out[p.A], p.B)
	}
	for _, bs := range out {
		slices.Sort(bs)
	}
	return out
}

// runSetup runs one set-up child into dir and returns its wall-clock.
func runSetup(w workload, scale, dir string) (time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), setupEnv+"="+dir+"|"+w.name+"|"+scale)
	cmd.Stderr = os.Stderr
	t0 := now()
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("set-up child: %w", err)
	}
	return since(t0), nil
}

// prevGeneration is what set-up leaves behind.
type prevGeneration struct {
	artifact []byte
	rows     [][]int
}

func loadSetup(dir string) (*prevGeneration, error) {
	art, err := os.ReadFile(filepath.Join(dir, prevArtifactFile))
	if err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(filepath.Join(dir, prevRowsFile))
	if err != nil {
		return nil, err
	}
	p := &prevGeneration{artifact: art}
	if err := json.Unmarshal(raw, &p.rows); err != nil {
		return nil, fmt.Errorf("%s: %w", prevRowsFile, err)
	}
	return p, nil
}
