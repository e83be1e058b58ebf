package atomicio

import (
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestCommitWritesFileAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	// A previous good artifact must survive until the new one commits.
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}

	w := Create(path)
	if _, err := w.Write([]byte(`{"a":`)); err != nil {
		t.Fatal(err)
	}
	// Mid-render: destination untouched.
	if b, _ := os.ReadFile(path); string(b) != "old" {
		t.Fatalf("destination changed before commit: %q", b)
	}
	if _, err := w.Write([]byte(`1}`)); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil || string(b) != `{"a":1}` {
		t.Fatalf("committed content %q err %v", b, err)
	}
	// No stray temp files.
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("stray temp file %s", e.Name())
		}
	}
	if err := w.Commit(); err == nil {
		t.Fatal("double commit succeeded")
	}
}

func TestAbandonedWriterLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.csv")
	w := Create(path)
	w.Write([]byte("partial render then process death"))
	// Never committed: destination must not exist.
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("uncommitted writer touched the destination: %v", err)
	}
	if w.Len() == 0 {
		t.Fatal("buffer empty")
	}
}

func TestSyncDir(t *testing.T) {
	// The happy path runs inside Commit already; pin the error shape for
	// a directory that vanished between rename and sync.
	if err := syncDir(filepath.Join(t.TempDir(), "gone")); err == nil {
		t.Fatal("syncDir on a missing directory succeeded")
	}
	if err := syncDir(t.TempDir()); err != nil {
		t.Fatalf("syncDir on a real directory: %v", err)
	}
}

func TestCommitDurableAfterRename(t *testing.T) {
	// Commit must fsync file and directory without erroring on a normal
	// filesystem, and the content must be fully visible afterwards.
	path := filepath.Join(t.TempDir(), "nested")
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	dest := filepath.Join(path, "artifact.jsonl")
	w := Create(dest)
	w.Write([]byte("line1\nline2\n"))
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(dest)
	if err != nil || string(b) != "line1\nline2\n" {
		t.Fatalf("content %q err %v", b, err)
	}
}

func TestCreateStdin(t *testing.T) {
	for _, p := range []string{"-", ""} {
		w := Create(p)
		if w.path != "" {
			t.Fatalf("Create(%q) path %q", p, w.path)
		}
	}
}

func TestCommitThroughSymlink(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "target.json")
	if err := os.WriteFile(target, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	link := filepath.Join(dir, "out.json")
	if err := os.Symlink("target.json", link); err != nil {
		t.Fatal(err)
	}
	w := Create(link)
	w.Write([]byte("new"))
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(target); err != nil || string(b) != "new" {
		t.Fatalf("target content %q err %v", b, err)
	}
	if fi, err := os.Lstat(link); err != nil || fi.Mode()&os.ModeSymlink == 0 {
		t.Fatalf("link replaced: mode %v err %v", fi.Mode(), err)
	}
}

// TestCommitFileModes checks that a committed file gets the mode os.Create
// would give it when new, and keeps the permission bits of the regular
// file it replaces, directly or through a symlink.
func TestCommitFileModes(t *testing.T) {
	dir := t.TempDir()
	commit := func(path string) {
		t.Helper()
		w := Create(path)
		w.Write([]byte("new"))
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	mode := func(path string) os.FileMode {
		t.Helper()
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Mode().Perm()
	}

	ref, err := os.Create(filepath.Join(dir, "ref"))
	if err != nil {
		t.Fatal(err)
	}
	ref.Close()
	fresh := filepath.Join(dir, "fresh.json")
	commit(fresh)
	if got, want := mode(fresh), mode(ref.Name()); got != want {
		t.Errorf("new file mode %v, os.Create gives %v", got, want)
	}

	for _, perm := range []os.FileMode{0o644, 0o640, 0o604} {
		old := filepath.Join(dir, "old.json")
		if err := os.WriteFile(old, []byte("old"), 0o600); err != nil {
			t.Fatal(err)
		}
		if err := os.Chmod(old, perm); err != nil {
			t.Fatal(err)
		}
		commit(old)
		if got := mode(old); got != perm {
			t.Errorf("replaced %v file: mode %v", perm, got)
		}
	}

	target := filepath.Join(dir, "target.json")
	if err := os.WriteFile(target, []byte("old"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(target, 0o644); err != nil {
		t.Fatal(err)
	}
	link := filepath.Join(dir, "link.json")
	if err := os.Symlink("target.json", link); err != nil {
		t.Fatal(err)
	}
	commit(link)
	if got := mode(target); got != 0o644 {
		t.Errorf("symlink target mode %v, want -rw-r--r--", got)
	}
}

func TestCommitToFIFOWritesInPlace(t *testing.T) {
	fifo := filepath.Join(t.TempDir(), "pipe")
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	got := make(chan string, 1)
	go func() {
		b, _ := os.ReadFile(fifo)
		got <- string(b)
	}()
	w := Create(fifo)
	w.Write([]byte("line1\nline2\n"))
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	// A Commit that renamed over the FIFO would leave the reader blocked
	// on the unlinked node: fail instead of hanging.
	select {
	case s := <-got:
		if s != "line1\nline2\n" {
			t.Fatalf("reader got %q", s)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("reader never received the bytes")
	}
	if fi, err := os.Lstat(fifo); err != nil || fi.Mode()&os.ModeNamedPipe == 0 {
		t.Fatalf("FIFO replaced: mode %v err %v", fi.Mode(), err)
	}
}
