package kprof_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// exportsWithoutCaller names the exported functions and methods that no
// non-test file calls by name, each with the reason it stays. A key is
// package.Name or package.Receiver.Name.
var exportsWithoutCaller = map[string]string{
	"kprof.RunFleet":                      "README's fleet section shows it",
	"analyze.Analysis.SummaryString":      "README's quick start prints Figure 3 with it",
	"analyze.Analysis.TraceString":        "README's quick start prints Figure 4 with it",
	"analyze.Analysis.SegmentsString":     "the root golden tests and core's drain tests render the segment table with it",
	"analyze.FnStat.AvgElapsed":           "the root package's paper-figure benchmarks report mean inclusive time with it",
	"analyze.Node.FirstChild":             "the root golden tests walk invocation trees with it",
	"analyze.Node.NextSibling":            "the root golden tests walk invocation trees with it",
	"bus.SlowdownVsMain":                  "the root package's ISA-versus-main-memory benchmark reports it",
	"core.CaptureMode.UnmarshalText":      "encoding.TextUnmarshaler: a decoded /status.json reaches it through the interface",
	"hw.Profiler.SetPowerOnCounter":       "the root power-on phase test sets the card counter's phase with it",
	"instrument.Result.InstrumentedNames": "pgo's budget tests compare a plan with what it instrumented",
	"kernel.Fn.Instrumented":              "instrument's tests check which functions a link instrumented",
	"kernel.Kernel.Runnable":              "netstack's park tests check that no reader is left runnable",
	"netstack.Sender.SendOne":             "the root package's per-packet cost benchmark sends single segments with it",
	"sampling.Sampler.Fraction":           "the root package's sampling-versus-hardware benchmark reports it",
	"sim.Scheduler.Pending":               "kernel's Advance fuzzer compares pending event counts with it",
	"sim.Scheduler.RunUntil":              "kernel and loadgen tests drive the scheduler with it",
	"sim.eventHeap.Less":                  "container/heap.Interface: the heap calls it through the interface",
	"sim.eventHeap.Swap":                  "container/heap.Interface: the heap calls it through the interface",
}

// TestEveryExportHasACaller is the census of code only tests reach. Every
// exported function or method declared outside kbench/ must have its name
// used by an identifier in some non-test file, its own declaration aside;
// kbench/, cmd/ and examples/ count as callers. A name that fails must be
// deleted, moved into its package's export_test.go, or allowlisted above
// with a reason. Matching by name is a lower bound: a name that any other
// identifier shares passes, so the census never flags a name in use.
func TestEveryExportHasACaller(t *testing.T) {
	type decl struct {
		key string
		pos token.Position
	}
	fset := token.NewFileSet()
	var decls []decl
	uses := map[string]int{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".bench_build", "testdata":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		declared := map[*ast.Ident]bool{}
		if !strings.HasPrefix(filepath.ToSlash(path), "kbench/") {
			for _, dd := range f.Decls {
				fd, ok := dd.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				declared[fd.Name] = true
				decls = append(decls, decl{f.Name.Name + "." + receiverPrefix(fd) + fd.Name.Name, fset.Position(fd.Pos())})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				uses[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, d := range decls {
		seen[d.key] = true
		name := d.key[strings.LastIndexByte(d.key, '.')+1:]
		_, allowed := exportsWithoutCaller[d.key]
		switch {
		case uses[name] == 0 && !allowed:
			t.Errorf("%s: %s has no caller outside tests: delete it, move it into an export_test.go, or allowlist it with a reason", d.pos, d.key)
		case uses[name] > 0 && allowed:
			t.Errorf("%s: %s has a caller now: drop it from exportsWithoutCaller", d.pos, d.key)
		}
	}
	for key := range exportsWithoutCaller {
		if !seen[key] {
			t.Errorf("exportsWithoutCaller names %s, which is not declared any more", key)
		}
	}
}

// receiverPrefix returns "Type." for a method and "" for a function.
func receiverPrefix(fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return ""
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	return t.(*ast.Ident).Name + "."
}
