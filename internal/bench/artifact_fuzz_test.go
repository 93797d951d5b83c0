package bench

import (
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// committedArtifacts lists the repository's BENCH_*.json files, oldest
// first by artifact number.
func committedArtifacts(tb testing.TB) []string {
	tb.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no committed BENCH_*.json found (%v)", err)
	}
	num := func(p string) int {
		n := 0
		for _, c := range filepath.Base(p) {
			if c >= '0' && c <= '9' {
				n = 10*n + int(c-'0')
			}
		}
		return n
	}
	sort.Slice(paths, func(i, j int) bool { return num(paths[i]) < num(paths[j]) })
	return paths
}

// FuzzReadArtifact feeds arbitrary bytes through the artifact reader and
// the regression gate, against the newest committed artifact in both
// roles: a malformed or hostile BENCH_*.json must yield an error or a
// result, never a panic.
func FuzzReadArtifact(f *testing.F) {
	paths := committedArtifacts(f)
	base, err := ReadFile(paths[len(paths)-1])
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	f.Add([]byte{})
	f.Add([]byte(`{"schema":"` + Schema + `","benchmarks":[{"name":"decode/steady","ns_per_record":-1,"allocs_per_record":1e308}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "BENCH_fuzz.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := ReadFile(path)
		if err != nil {
			return
		}
		for _, g := range Compare(base, r, 0) {
			_ = g.String()
		}
		for _, g := range Compare(r, base, 0) {
			_ = g.String()
		}
	})
}
