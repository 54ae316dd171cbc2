package snapshot

import (
	"fmt"
	"os"
	"path/filepath"
)

// WriteFile writes a snapshot image to path atomically: the bytes land in
// a temporary file in the same directory, are fsynced, and only then
// renamed over path (with a directory fsync so the rename itself is
// durable). A crash at any point leaves either the old file or the new
// one — never a loadable half-snapshot. Missing parent directories are
// created (a profile store's directory is born on first save).
func WriteFile(path string, data []byte) (err error) {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if _, err = f.Write(data); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if err = f.Sync(); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if err = os.Rename(tmp, path); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if d, derr := os.Open(dir); derr == nil {
		// Best-effort directory fsync; some filesystems reject it.
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// ReadFile loads a snapshot image. An absent or unreadable file is an
// ordinary error (not one of the format errors); callers treat both the
// same way — fall back to fresh characterization.
func ReadFile(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	return data, nil
}
