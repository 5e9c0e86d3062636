package analysis

import "testing"

// preFlowSuite is the eight-analyzer suite as it stood before the
// flow-sensitive layer landed, the denominator BenchmarkVetTree reports the
// later layers against.
var preFlowSuite = []*Analyzer{
	Determinism, TransDeterminism, CostAccounting, LockSafety,
	ErrCheck, HotAlloc, CtxFlow, ScratchEscape,
}

// flowSuite is the flow-sensitive additions on their own: the two
// dataflow analyzers plus the rewrite-only sortslice pass.
var flowSuite = []*Analyzer{MRPurity, LockOrder, SortSlice}

// freezeSuite is the publish-then-freeze layer on its own: immutpublish
// shares the Run-wide FuncFlow cache with mrpurity, servebudget is a pure
// AST-and-facts pass.
var freezeSuite = []*Analyzer{Immutpublish, ServeBudget}

// streamSuite is the out-of-core layer on its own: streambound rides the
// shared FuncFlow cache, spillres is an AST walk with its own per-path
// interpreter.
var streamSuite = []*Analyzer{StreamBound, SpillRes}

// benchPackages loads the module tree once; loading and type-checking are
// deliberately outside the timed region (the analyzers, not the parser,
// are what these benchmarks watch).
func benchPackages(b *testing.B) []*Package {
	b.Helper()
	l, err := sharedLoader()
	if err != nil {
		b.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := l.Load([]string{"./..."})
	if err != nil {
		b.Fatalf("Load: %v", err)
	}
	return pkgs
}

// BenchmarkVetTree measures one full falcon-vet pass over the module's
// own tree: the pre-flow eight-analyzer suite, the flow-sensitive layer
// alone (dataflow construction dominates), the publish-then-freeze layer
// alone, the out-of-core layer alone, and the full fifteen-analyzer suite
// the CLI runs — serially and on the parallel DAG scheduler. Two more
// variants time the whole Vet pipeline end to end: coldvet is a full
// load + analyze with nothing cached, warmcache is the no-change cached
// fast path (module scan + key probes + cached diagnostics, no
// type-checking) — the pair records the cache's cold-vs-warm ratio.
func BenchmarkVetTree(b *testing.B) {
	pkgs := benchPackages(b)
	suites := []struct {
		name      string
		analyzers []*Analyzer
	}{
		{"preflow8", preFlowSuite},
		{"flow3", flowSuite},
		{"freeze2", freezeSuite},
		{"stream2", streamSuite},
		{"full15", All()},
	}
	for _, s := range suites {
		b.Run(s.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if diags := Run(s.analyzers, pkgs); len(diags) != 0 {
					b.Fatalf("tree is not clean: %v", diags[0])
				}
			}
		})
	}
	b.Run("parallel8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if diags := RunPackages(All(), pkgs, Options{Parallel: 8}); len(diags) != 0 {
				b.Fatalf("tree is not clean: %v", diags[0])
			}
		}
	})
	b.Run("coldvet", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := Vet(VetRequest{Dir: ".", Parallel: 8})
			if err != nil || len(res.Diags) != 0 {
				b.Fatalf("cold vet: err %v, %d diags", err, len(res.Diags))
			}
		}
	})
	b.Run("warmcache", func(b *testing.B) {
		cacheDir := b.TempDir()
		req := VetRequest{Dir: ".", Parallel: 8, CacheDir: cacheDir}
		if _, err := Vet(req); err != nil {
			b.Fatalf("seeding cache: %v", err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := Vet(req)
			if err != nil || !res.FastPath || len(res.Diags) != 0 {
				b.Fatalf("warm vet: err %v, fastpath %v, %d diags", err, res != nil && res.FastPath, len(res.Diags))
			}
		}
	})
}
