package obs

import (
	"fmt"
	"os"
	"path/filepath"
)

// EnsureWritableDir creates dir (and parents) if needed and proves it is
// writable by creating and removing a probe file. CLIs call it at flag-parse
// time so a bad -record/-comm path fails before a long run, not after.
func EnsureWritableDir(dir string) error {
	if dir == "" {
		return fmt.Errorf("empty path")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("not creatable: %w", err)
	}
	probe, err := os.CreateTemp(dir, ".probe-*")
	if err != nil {
		return fmt.Errorf("not writable: %w", err)
	}
	name := probe.Name()
	probe.Close()
	os.Remove(name)
	return nil
}

// EnsureWritableFile verifies path can be created as (or already is) a
// writable file. An existing file is opened for writing without truncation; a
// fresh probe is removed again.
func EnsureWritableFile(path string) error {
	if path == "" {
		return fmt.Errorf("empty path")
	}
	if fi, err := os.Stat(path); err == nil {
		if fi.IsDir() {
			return fmt.Errorf("%s is a directory", path)
		}
		f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
		if err != nil {
			return fmt.Errorf("not writable: %w", err)
		}
		return f.Close()
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("parent not creatable: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("not creatable: %w", err)
	}
	f.Close()
	os.Remove(path)
	return nil
}
