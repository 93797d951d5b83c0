package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"kprof/internal/core"
	"kprof/internal/kernel"
	"kprof/internal/sim"
	"kprof/internal/workload"
)

// TestWriteFile pins the CLI's one file-output path: the written bytes
// land, and any failure — creating, writing or closing — is returned
// rather than leaving an exit-0 run with a truncated file behind.
func TestWriteFile(t *testing.T) {
	dir := t.TempDir()

	t.Run("writes", func(t *testing.T) {
		path := filepath.Join(dir, "ok")
		if err := writeFile(path, func(w io.Writer) error {
			_, err := io.WriteString(w, "kprof")
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != "kprof" {
			t.Fatalf("read back %q, %v; want %q", got, err, "kprof")
		}
	})

	t.Run("write error returned, file closed", func(t *testing.T) {
		boom := errors.New("boom")
		var f *os.File
		err := writeFile(filepath.Join(dir, "werr"), func(w io.Writer) error {
			f = w.(*os.File)
			return boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("writeFile = %v, want the writer's error", err)
		}
		if _, err := f.Write([]byte("x")); !errors.Is(err, os.ErrClosed) {
			t.Fatalf("file still open after a failed write: Write = %v", err)
		}
	})

	t.Run("close error returned", func(t *testing.T) {
		// The writer closes the file itself, so writeFile's own Close
		// fails — standing in for a write-back that fails at close.
		err := writeFile(filepath.Join(dir, "cerr"), func(w io.Writer) error {
			return w.(*os.File).Close()
		})
		if !errors.Is(err, os.ErrClosed) {
			t.Fatalf("writeFile = %v, want the close error", err)
		}
	})

	t.Run("missing directory", func(t *testing.T) {
		called := false
		err := writeFile(filepath.Join(dir, "missing", "out"), func(io.Writer) error {
			called = true
			return nil
		})
		if err == nil {
			t.Fatal("writeFile under a missing directory returned nil")
		}
		if called {
			t.Fatal("writer ran although the file could not be created")
		}
	})
}

// failAfter accepts n bytes, then fails every write.
type failAfter struct {
	n   int
	err error
}

func (w *failAfter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		k := w.n
		w.n = 0
		return k, w.err
	}
	w.n -= len(p)
	return len(p), nil
}

// TestPrintReportReturnsWriteErrors: every report kind returns the error
// of a writer that fails partway through it, whether at the first byte,
// mid-report or at the last byte, and an unknown report is an error too.
func TestPrintReportReturnsWriteErrors(t *testing.T) {
	m := core.NewMachine(kernel.Config{Seed: 42})
	s, err := core.NewSession(m, core.ProfileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s.Arm()
	if _, err := workload.NetReceive(m, 60*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	s.Disarm()
	a := s.Analyze()
	boom := errors.New("boom")
	for _, report := range []string{"summary", "trace", "groups", "hist", "timeline", "callgraph", "json"} {
		var full bytes.Buffer
		if err := printReport(&full, a, m, report, 20, 80, "bcopy"); err != nil {
			t.Fatalf("%s: %v", report, err)
		}
		if full.Len() == 0 {
			t.Fatalf("%s: empty report", report)
		}
		for _, n := range []int{0, full.Len() / 2, full.Len() - 1} {
			if err := printReport(&failAfter{n: n, err: boom}, a, m, report, 20, 80, "bcopy"); !errors.Is(err, boom) {
				t.Errorf("%s failing after %d of %d bytes: printReport = %v, want the write error", report, n, full.Len(), err)
			}
		}
	}
	if err := printReport(io.Discard, a, m, "nosuch", 20, 80, "bcopy"); err == nil {
		t.Error("an unknown report returned no error")
	}
}
