package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"syscall"
)

// environment is what every result carries besides its metrics: enough to
// tell which machine, build and inputs produced the numbers.
func environment(r *run, detail map[string]any) map[string]any {
	env := map[string]any{
		"commit":     commit(),
		"date":       now().UTC().Format("2006-01-02T15:04:05Z"),
		"seed":       r.seed,
		"seconds":    r.seconds,
		"scale":      r.scale,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"traced":     r.tr != nil,
	}
	for k, v := range detail {
		env[k] = v
	}
	return env
}

// commit is the checkout's HEAD, or "unknown" where there is no repository
// (the driver's checkout is a plain directory).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding path, since spilled runs measure it.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// report lists every metric by name with its unit, the operation tally and
// the environment, for a reader; the result object follows it.
func report(workload string, res *result, env map[string]any, notes []string) string {
	var w strings.Builder
	fmt.Fprintf(&w, "workload %s  seed %v  traced %v\n", workload, env["seed"], env["traced"])
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(&w, "  %-34s %16.6f %s\n", name, m.Value, m.Unit)
	}
	fmt.Fprintf(&w, "  ops attempted %d  failed %d  correct %v\n", res.Attempted, res.Failed, res.Correct)
	for _, n := range notes {
		fmt.Fprintf(&w, "  FAILED: %s\n", n)
	}
	if raw, err := json.Marshal(env); err == nil {
		fmt.Fprintf(&w, "  env %s\n", raw)
	}
	return w.String()
}

// record is one line of a -record file, the input of -compare.
type record struct {
	Workload string         `json:"workload"`
	Traced   bool           `json:"traced"`
	Env      map[string]any `json:"env"`
	Result   *result        `json:"result"`
}

func appendRecord(path, workload string, traced bool, res *result, env map[string]any) error {
	line, err := json.Marshal(record{Workload: workload, Traced: traced, Env: env, Result: res})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		_ = f.Close() // the Write error is the one to report
		return err
	}
	return f.Close()
}
