package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
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
