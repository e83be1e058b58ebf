// Package atomicio gives CLI output all-or-nothing semantics: renderers
// write into a buffer, and Commit lands the whole thing in one step — a
// single Write for stdout, a device or a FIFO, a temp-file rename for
// regular files. A SIGINT (or any error exit) between render and commit
// therefore leaves either the complete artifact or nothing: no truncated
// last line for a consumer to choke on, and never a half-written file
// shadowing a good one.
package atomicio

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
)

// Writer buffers output destined for a file or stdout. The zero value
// is not usable; see Create.
type Writer struct {
	buf       bytes.Buffer
	path      string // "" means stdout
	committed bool
}

// Create returns a writer that will commit to path; "-" or "" selects
// stdout. Nothing touches the destination until Commit, so the old
// artifact (if any) stays whole while the new one renders.
func Create(path string) *Writer {
	if path == "-" {
		path = ""
	}
	return &Writer{path: path}
}

// Write buffers p; it cannot fail.
func (w *Writer) Write(p []byte) (int, error) {
	return w.buf.Write(p)
}

// Commit lands the buffered output. Stdout gets one os.Stdout.Write. A
// path is first resolved through any symlinks, so a link keeps pointing
// at its target and the target receives the bytes. An existing
// non-regular destination (a device such as /dev/null, or a FIFO) is
// opened in place and gets one Write, as stdout does: renaming over it
// would replace the node with a regular file. Anything else gets an
// atomic temp-file + rename next to the resolved path, fsynced so the
// artifact survives power loss — the file before the rename, the
// containing directory after it (the rename itself lives in directory
// metadata). The renamed file has the mode os.Create would give a new
// file (0666 less the umask), or the permission bits of the regular file
// it replaces. Calling Commit twice is an error; a writer that is never
// committed writes nothing.
func (w *Writer) Commit() error {
	if w.committed {
		return fmt.Errorf("atomicio: already committed")
	}
	w.committed = true
	if w.path == "" {
		_, err := os.Stdout.Write(w.buf.Bytes())
		return err
	}
	path, err := filepath.EvalSymlinks(w.path)
	if errors.Is(err, fs.ErrNotExist) {
		path = w.path // a new file (or a dangling link, replaced)
	} else if err != nil {
		return fmt.Errorf("atomicio: %w", err)
	}
	fi, statErr := os.Stat(path)
	if statErr == nil && !fi.Mode().IsRegular() {
		return writeInPlace(path, w.buf.Bytes())
	}
	dir := filepath.Dir(path)
	tmp, err := createTemp(dir, filepath.Base(path))
	if err != nil {
		return fmt.Errorf("atomicio: %w", err)
	}
	if statErr == nil {
		err = tmp.Chmod(fi.Mode().Perm())
	}
	if err == nil {
		_, err = tmp.Write(w.buf.Bytes())
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("atomicio: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("atomicio: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("atomicio: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("atomicio: %w", err)
	}
	return syncDir(dir)
}

// createTemp creates a new file next to the destination, as
// os.CreateTemp does but with mode 0666 less the umask, the mode
// os.Create gives (os.CreateTemp's is 0600).
func createTemp(dir, base string) (*os.File, error) {
	for {
		name := filepath.Join(dir, base+".tmp"+strconv.FormatUint(uint64(rand.Uint32()), 10))
		f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o666)
		if !errors.Is(err, fs.ErrExist) {
			return f, err
		}
	}
}

// writeInPlace writes b to an existing non-regular file with one Write.
func writeInPlace(path string, b []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("atomicio: %w", err)
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return fmt.Errorf("atomicio: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("atomicio: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry is durable. Some
// filesystems reject fsync on directories; that is not a data-loss
// condition, so only open errors are reported.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("atomicio: %w", err)
	}
	defer d.Close()
	d.Sync()
	return nil
}

// Len reports the bytes buffered so far.
func (w *Writer) Len() int { return w.buf.Len() }
