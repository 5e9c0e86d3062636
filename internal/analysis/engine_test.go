package analysis

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// This file tests the execution engine: the byte-identity of serial,
// parallel, cold-cache, and warm-cache diagnostics; the cache
// invalidation matrix; and diff-mode package selection.

// flaggedFixtureDirs is the fixture corpus with known findings — the
// byte-identity tests need non-empty diagnostics with cross-package
// chains to compare, and the module's own tree is clean by design.
var flaggedFixtureDirs = []string{
	"determinism_flagged", "costaccounting_flagged", "locksafety_flagged",
	"errcheck_flagged", "hotalloc_flagged", "transdeterminism_flagged",
	"ctxflow_flagged", "scratchescape_flagged", "mrpurity_flagged",
	"lockorder_flagged", "immutpublish_flagged", "servebudget_flagged",
	"streambound_flagged", "spillres_flagged",
	"multi/detapp", "ctxmulti/app", "scratchmulti/scratchapp",
	"mrmulti/mrapp", "lockmulti/lockapp", "freezemulti/frzapp",
	"servemulti/srvapp", "streammulti/strmapp", "spillmulti/splapp",
	"staleallow",
}

// diagsFingerprint renders diagnostics the two ways the CLI does — the
// text line format and the JSON marshaling — so "byte-identical output"
// is asserted on the actual output bytes, not on reflect.DeepEqual.
func diagsFingerprint(t *testing.T, diags []Diagnostic) string {
	t.Helper()
	text := ""
	for _, d := range diags {
		text += d.String() + "\n"
	}
	js, err := json.Marshal(diags)
	if err != nil {
		t.Fatalf("marshal diagnostics: %v", err)
	}
	return text + "\n" + string(js)
}

func loadFixtureCorpus(t *testing.T) []*Package {
	t.Helper()
	l := loader(t)
	var pkgs []*Package
	for _, dir := range flaggedFixtureDirs {
		pkg, err := l.LoadDir(filepath.Join("testdata", dir))
		if err != nil {
			t.Fatalf("loading %s: %v", dir, err)
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs
}

// TestParallelByteIdentical is the scheduler's core promise: over a
// corpus with findings from every analyzer (cross-package chains, lock
// cycles, autofix edits, stale allows included), a parallel run's
// diagnostics are byte-identical to a serial run's, in both output
// formats, and a cached re-run matches too.
func TestParallelByteIdentical(t *testing.T) {
	pkgs := loadFixtureCorpus(t)
	serial := diagsFingerprint(t, RunPackages(All(), pkgs, Options{Parallel: 1}))
	if len(serial) == 0 {
		t.Fatal("fixture corpus produced no diagnostics; the equality check is vacuous")
	}
	for _, par := range []int{2, 8} {
		got := diagsFingerprint(t, RunPackages(All(), pkgs, Options{Parallel: par}))
		if got != serial {
			t.Errorf("parallel=%d diagnostics differ from serial run", par)
		}
	}

	l := loader(t)
	cacheDir := t.TempDir()
	cold := diagsFingerprint(t, RunPackages(All(), pkgs, Options{
		Parallel: 8, cache: newCacheSession(cacheDir, l.Root, All(), ""),
	}))
	if cold != serial {
		t.Errorf("cold-cache diagnostics differ from serial run")
	}
	warmSession := newCacheSession(cacheDir, l.Root, All(), "")
	warm := diagsFingerprint(t, RunPackages(All(), pkgs, Options{Parallel: 8, cache: warmSession}))
	if warm != serial {
		t.Errorf("warm-cache diagnostics differ from serial run")
	}
	if len(warmSession.misses) != 0 {
		t.Errorf("warm run missed packages %v; every fixture entry should hit", warmSession.misses)
	}
}

// demoModule is a four-package temp module with a cross-package
// determinism violation threaded a->b->c (the wall clock lives in the
// leaf, each finding in b and c depends on the dependency's exported
// ReachFact) and an independent clean package d.
var demoModule = map[string]string{
	"go.mod": "module demo\n\ngo 1.22\n",
	"a/a.go": `// Package a is the leaf: the wall-clock read lives here.
package a

import "time"

// Stamp reads the wall clock.
func Stamp() int64 { return time.Now().UnixNano() }
`,
	"b/b.go": `// Package b reaches the wall clock one package away.
package b

import "demo/a"

// Record transitively reads the wall clock.
func Record() int64 { return a.Stamp() }
`,
	"c/c.go": `// Package c reaches the wall clock two packages away.
package c

import "demo/b"

// Log transitively reads the wall clock.
func Log() int64 { return b.Record() }
`,
	"d/d.go": `// Package d is independent and clean.
package d

// Five is five.
func Five() int { return 5 }
`,
}

func writeTree(t *testing.T, root string, files map[string]string) {
	t.Helper()
	for name, src := range files {
		full := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func vetDemo(t *testing.T, root string, req VetRequest) *VetResult {
	t.Helper()
	req.Dir = root
	res, err := Vet(req)
	if err != nil {
		t.Fatalf("Vet: %v", err)
	}
	if len(res.Errors) > 0 {
		t.Fatalf("Vet load errors: %v", res.Errors)
	}
	return res
}

// TestVetEquality drives the full Vet pipeline on a seeded module:
// serial, parallel, cold-cache, and warm-cache (fast path) runs must
// produce byte-identical diagnostics, and the warm run must not
// type-check anything.
func TestVetEquality(t *testing.T) {
	root := t.TempDir()
	writeTree(t, root, demoModule)
	cacheDir := filepath.Join(root, ".vetcache")

	serial := vetDemo(t, root, VetRequest{Parallel: 1})
	if len(serial.Diags) == 0 {
		t.Fatal("demo module produced no diagnostics; the equality check is vacuous")
	}
	want := diagsFingerprint(t, serial.Diags)

	parallel := vetDemo(t, root, VetRequest{Parallel: 8})
	if got := diagsFingerprint(t, parallel.Diags); got != want {
		t.Errorf("parallel diagnostics differ from serial:\n%s\n--- vs ---\n%s", got, want)
	}

	cold := vetDemo(t, root, VetRequest{Parallel: 8, CacheDir: cacheDir})
	if got := diagsFingerprint(t, cold.Diags); got != want {
		t.Errorf("cold-cache diagnostics differ from serial")
	}
	if cold.FastPath {
		t.Error("cold run claims the fast path")
	}
	wantPkgs := []string{"demo/a", "demo/b", "demo/c", "demo/d"}
	if !slices.Equal(cold.Analyzed, wantPkgs) {
		t.Errorf("cold run analyzed %v, want %v", cold.Analyzed, wantPkgs)
	}

	warm := vetDemo(t, root, VetRequest{Parallel: 8, CacheDir: cacheDir})
	if got := diagsFingerprint(t, warm.Diags); got != want {
		t.Errorf("warm-cache diagnostics differ from serial")
	}
	if !warm.FastPath {
		t.Error("warm no-change run did not take the fast path")
	}
	if len(warm.Analyzed) != 0 || !slices.Equal(warm.CacheHits, wantPkgs) {
		t.Errorf("warm run analyzed %v, hit %v; want no analysis and hits %v",
			warm.Analyzed, warm.CacheHits, wantPkgs)
	}
}

// touch rewrites one file with a trailing comment appended, changing its
// content hash without changing its meaning.
func touch(t *testing.T, root, rel string) {
	t.Helper()
	full := filepath.Join(root, filepath.FromSlash(rel))
	src, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(full, append(src, []byte("\n// touched\n")...), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCacheInvalidationMatrix pins the invalidation story: each kind of
// change re-analyzes exactly the expected package set — and nothing else
// — while re-analyzed dependents reproduce their cross-package findings
// from cached dependencies' facts.
func TestCacheInvalidationMatrix(t *testing.T) {
	root := t.TempDir()
	writeTree(t, root, demoModule)
	cacheDir := filepath.Join(root, ".vetcache")

	cold := vetDemo(t, root, VetRequest{CacheDir: cacheDir})
	want := diagsFingerprint(t, cold.Diags)

	// Touching the top-of-chain package re-analyzes it alone; its chain
	// finding (which needs b's ReachFact, b being a cache hit) must
	// survive, proving facts rehydrate across the cache boundary.
	touch(t, root, "c/c.go")
	res := vetDemo(t, root, VetRequest{CacheDir: cacheDir})
	if got := diagsFingerprint(t, res.Diags); got != want {
		t.Errorf("after touching c, diagnostics differ from cold run:\n%s\n--- vs ---\n%s", got, want)
	}
	if wantA := []string{"demo/c"}; !slices.Equal(res.Analyzed, wantA) {
		t.Errorf("touch leaf-of-chain: analyzed %v, want %v", res.Analyzed, wantA)
	}
	if wantH := []string{"demo/a", "demo/b", "demo/d"}; !slices.Equal(res.CacheHits, wantH) {
		t.Errorf("touch leaf-of-chain: hits %v, want %v", res.CacheHits, wantH)
	}

	// Touching the dependency re-analyzes it plus every transitive reverse
	// dependent; the unrelated package stays cached.
	touch(t, root, "a/a.go")
	res = vetDemo(t, root, VetRequest{CacheDir: cacheDir})
	if got := diagsFingerprint(t, res.Diags); got != want {
		t.Errorf("after touching a, diagnostics differ from cold run")
	}
	if wantA := []string{"demo/a", "demo/b", "demo/c"}; !slices.Equal(res.Analyzed, wantA) {
		t.Errorf("touch dependency: analyzed %v, want %v", res.Analyzed, wantA)
	}
	if wantH := []string{"demo/d"}; !slices.Equal(res.CacheHits, wantH) {
		t.Errorf("touch dependency: hits %v, want %v", res.CacheHits, wantH)
	}

	// An analyzer-version bump (simulated through the salt hook)
	// invalidates everything.
	res = vetDemo(t, root, VetRequest{CacheDir: cacheDir, saltExtra: "analyzer-bump"})
	if got := diagsFingerprint(t, res.Diags); got != want {
		t.Errorf("after salt bump, diagnostics differ from cold run")
	}
	if len(res.CacheHits) != 0 || len(res.Analyzed) != 4 {
		t.Errorf("salt bump: analyzed %v, hits %v; want all 4 analyzed, no hits", res.Analyzed, res.CacheHits)
	}

	// A //falcon:allow edit at the taint source changes a's bytes (a, b, c
	// re-analyze) and sanctions the wall clock, so the direct finding and
	// both downstream chain findings all disappear: facts re-propagate,
	// they are not replayed from the stale entries.
	src, err := os.ReadFile(filepath.Join(root, "a", "a.go"))
	if err != nil {
		t.Fatal(err)
	}
	const stamp = "func Stamp() int64 { return time.Now().UnixNano() }"
	if !strings.Contains(string(src), stamp) {
		t.Fatalf("demo source drifted; %q not found", stamp)
	}
	next := strings.Replace(string(src), stamp,
		"//falcon:allow determinism sanctioned for the invalidation matrix\n"+stamp, 1)
	if err := os.WriteFile(filepath.Join(root, "a", "a.go"), []byte(next), 0o644); err != nil {
		t.Fatal(err)
	}
	res = vetDemo(t, root, VetRequest{CacheDir: cacheDir})
	if wantA := []string{"demo/a", "demo/b", "demo/c"}; !slices.Equal(res.Analyzed, wantA) {
		t.Errorf("allow edit: analyzed %v, want %v", res.Analyzed, wantA)
	}
	if len(res.Diags) != 0 {
		t.Errorf("allow edit at the source should clear every finding; got %v", res.Diags)
	}
}

// gitIn runs one git command in dir with a hermetic identity/config, for
// the diff-mode tests.
func gitIn(t *testing.T, dir string, args ...string) {
	t.Helper()
	cmd := exec.Command("git", append([]string{"-C", dir}, args...)...)
	cmd.Env = append(os.Environ(),
		"GIT_AUTHOR_NAME=t", "GIT_AUTHOR_EMAIL=t@t", "GIT_COMMITTER_NAME=t", "GIT_COMMITTER_EMAIL=t@t",
		"GIT_CONFIG_GLOBAL=/dev/null", "GIT_CONFIG_SYSTEM=/dev/null")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("git %v: %v\n%s", args, err, out)
	}
}

// TestDiffMode pins -diff REF selection: after a single-package change,
// only that package and its reverse dependents are requested, and their
// diagnostics equal the same packages' slice of a full run.
func TestDiffMode(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("git not available")
	}
	root := t.TempDir()
	writeTree(t, root, demoModule)
	git := func(args ...string) {
		t.Helper()
		gitIn(t, root, args...)
	}
	git("init", "-q")
	git("add", ".")
	git("commit", "-q", "-m", "seed")

	full := vetDemo(t, root, VetRequest{})

	touch(t, root, "b/b.go")
	diff := vetDemo(t, root, VetRequest{DiffRef: "HEAD"})
	if want := []string{"demo/b", "demo/c"}; !slices.Equal(diff.Requested, want) {
		t.Fatalf("diff requested %v, want changed package + reverse dependents %v", diff.Requested, want)
	}
	var wantDiags []Diagnostic
	for _, d := range full.Diags {
		rel, err := filepath.Rel(root, d.Pos.Filename)
		if err == nil && (filepath.Dir(rel) == "b" || filepath.Dir(rel) == "c") {
			wantDiags = append(wantDiags, d)
		}
	}
	if got, want := diagsFingerprint(t, diff.Diags), diagsFingerprint(t, wantDiags); got != want {
		t.Errorf("diff-mode verdict differs from the full run's slice:\n%s\n--- vs ---\n%s", got, want)
	}

	// With nothing changed since HEAD, diff mode selects nothing.
	git("add", ".")
	git("commit", "-q", "-m", "touch")
	clean := vetDemo(t, root, VetRequest{DiffRef: "HEAD"})
	if len(clean.Requested) != 0 || len(clean.Diags) != 0 {
		t.Errorf("no-change diff run selected %v with %d diags; want nothing", clean.Requested, len(clean.Diags))
	}
}

// TestChangedGoDirsNestedModule pins the git path arithmetic for a module
// nested inside a larger repository: git prints diff paths relative to
// the repo top-level unless told otherwise, so without --relative every
// joined directory would be wrong and -diff would silently select
// nothing.
func TestChangedGoDirsNestedModule(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("git not available")
	}
	repo := t.TempDir()
	modRoot := filepath.Join(repo, "services", "falcon")
	writeTree(t, modRoot, demoModule)
	gitIn(t, repo, "init", "-q")
	gitIn(t, repo, "add", ".")
	gitIn(t, repo, "commit", "-q", "-m", "seed")

	touch(t, modRoot, "b/b.go")
	writeTree(t, modRoot, map[string]string{"e/e.go": "// Package e is new and untracked.\npackage e\n\n// Six is six.\nfunc Six() int { return 6 }\n"})
	dirs, err := changedGoDirs(modRoot, "HEAD")
	if err != nil {
		t.Fatalf("changedGoDirs: %v", err)
	}
	want := map[string]bool{
		filepath.Join(modRoot, "b"): true,
		filepath.Join(modRoot, "e"): true,
	}
	if len(dirs) != len(want) {
		t.Fatalf("changedGoDirs = %v, want %v", dirs, want)
	}
	for d := range want {
		if !dirs[d] {
			t.Errorf("changedGoDirs misses %s (got %v)", d, dirs)
		}
	}

	// And end to end: the nested-module diff run selects the changed
	// packages plus reverse dependents, exactly as a top-level module does.
	res := vetDemo(t, modRoot, VetRequest{DiffRef: "HEAD"})
	if want := []string{"demo/b", "demo/c", "demo/e"}; !slices.Equal(res.Requested, want) {
		t.Errorf("nested-module diff requested %v, want %v", res.Requested, want)
	}
}

// lockSiblingModule splits a lock-order cycle across two sibling packages
// that never import each other: p nests lock B inside A, q nests A inside
// B, and only a package importing both (app, app2) sees the cycle. top
// imports app, so its closure contains the cycle too — but app's graph
// already holds every edge, which must suppress a second report.
var lockSiblingModule = map[string]string{
	"go.mod": "module lockdemo\n\ngo 1.22\n",
	"locks/locks.go": `// Package locks holds the shared lock pair.
package locks

import "sync"

// A guards the first shared table.
var A sync.Mutex

// B guards the second shared table.
var B sync.Mutex
`,
	"p/p.go": `// Package p takes the pair in A -> B order.
package p

import "lockdemo/locks"

// AB nests B inside A.
func AB() {
	locks.A.Lock()
	locks.B.Lock()
	locks.B.Unlock()
	locks.A.Unlock()
}
`,
	"q/q.go": `// Package q takes the pair in B -> A order.
package q

import "lockdemo/locks"

// BA nests A inside B.
func BA() {
	locks.B.Lock()
	locks.A.Lock()
	locks.A.Unlock()
	locks.B.Unlock()
}
`,
	"app/app.go": `// Package app joins the sibling packages' lock orders.
package app

import (
	"lockdemo/p"
	"lockdemo/q"
)

// Use drives both siblings.
func Use() {
	p.AB()
	q.BA()
}
`,
	"app2/app2.go": `// Package app2 is a second independent joiner of the same siblings.
package app2

import (
	"lockdemo/p"
	"lockdemo/q"
)

// Use drives both siblings.
func Use() {
	p.AB()
	q.BA()
}
`,
	"top/top.go": `// Package top sits above app; the cycle is fully inside its import's
// closure and must not be re-reported here.
package top

import "lockdemo/app"

// Run drives app.
func Run() { app.Use() }
`,
}

// TestSiblingLockCycle pins the cross-sibling cycle story: a cycle whose
// halves live in two packages neither of which imports the other is
// reported — exactly once, at the dependency acquisition that closes it —
// in every run mode, cached runs included, and a package whose direct
// import already joined the streams does not repeat it.
func TestSiblingLockCycle(t *testing.T) {
	root := t.TempDir()
	writeTree(t, root, lockSiblingModule)
	cacheDir := filepath.Join(root, ".vetcache")

	serial := vetDemo(t, root, VetRequest{Parallel: 1})
	var cycles []Diagnostic
	for _, d := range serial.Diags {
		if d.Analyzer == "lockorder" && strings.Contains(d.Message, "closes a lock-order cycle") {
			cycles = append(cycles, d)
		}
	}
	if len(cycles) != 1 {
		t.Fatalf("want exactly 1 sibling-cycle diagnostic, got %d: %v", len(cycles), serial.Diags)
	}
	cyc := cycles[0]
	if !strings.Contains(cyc.Message, "across dependency packages") ||
		!strings.Contains(cyc.Message, "lockdemo/locks.A") || !strings.Contains(cyc.Message, "lockdemo/locks.B") {
		t.Errorf("cycle message does not name the sibling cycle: %s", cyc.Message)
	}
	// The witness position is the canonical cycle's first edge — A -> B,
	// the nested locks.B.Lock() in p — regardless of which sibling's
	// stream happened to seed last.
	if filepath.Base(cyc.Pos.Filename) != "p.go" {
		t.Errorf("cycle reported at %s, want the canonical A -> B acquisition in p.go", cyc.Pos)
	}
	want := diagsFingerprint(t, serial.Diags)

	parallel := vetDemo(t, root, VetRequest{Parallel: 8})
	if got := diagsFingerprint(t, parallel.Diags); got != want {
		t.Errorf("parallel sibling-cycle diagnostics differ from serial:\n%s\n--- vs ---\n%s", got, want)
	}
	cold := vetDemo(t, root, VetRequest{Parallel: 8, CacheDir: cacheDir})
	if got := diagsFingerprint(t, cold.Diags); got != want {
		t.Errorf("cold-cache sibling-cycle diagnostics differ from serial")
	}
	warm := vetDemo(t, root, VetRequest{Parallel: 8, CacheDir: cacheDir})
	if !warm.FastPath {
		t.Error("warm no-change run did not take the fast path")
	}
	if got := diagsFingerprint(t, warm.Diags); got != want {
		t.Errorf("warm-cache sibling-cycle diagnostics differ from serial")
	}

	// A single joiner requested alone (the -diff shape after touching app)
	// reaches the same verdict; its dependencies restore from the cache,
	// so the seeded edges carry cache-roundtripped witness positions.
	one := vetDemo(t, root, VetRequest{Patterns: []string{"app"}, CacheDir: cacheDir})
	var oneCycles []Diagnostic
	for _, d := range one.Diags {
		if d.Analyzer == "lockorder" {
			oneCycles = append(oneCycles, d)
		}
	}
	if len(oneCycles) != 1 || diagsFingerprint(t, oneCycles) != diagsFingerprint(t, cycles) {
		t.Errorf("app-only run reports %v, want exactly the full run's cycle %v", oneCycles, cycles)
	}
}
