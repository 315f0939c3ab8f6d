package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Backend abstracts the filesystem surface the checkpoint store needs,
// so a store can live on a local directory today and on a remote or
// in-memory medium tomorrow (the service keys per-tenant stores by
// label on whatever backend it was handed). Implementations must make
// Rename atomic with respect to readers: a path either resolves to the
// old bytes or the new ones, never a mix.
type Backend interface {
	// EnsureDir creates dir (and parents) if needed.
	EnsureDir(dir string) error
	// ListFiles returns the names (not paths) of the regular files in
	// dir, sorted lexically; directories are excluded. A missing dir is
	// an error. (The shard fleet's workers walk shared directories, so
	// implementations must agree on the order.)
	ListFiles(dir string) ([]string, error)
	// ReadFile returns the contents of path.
	ReadFile(path string) ([]byte, error)
	// WriteFile writes data to path, creating or truncating it. When
	// sync is true the data must be durable before WriteFile returns; a
	// failed sync returns an error wrapping ErrFsync.
	WriteFile(path string, data []byte, sync bool) error
	// Rename atomically moves oldPath to newPath.
	Rename(oldPath, newPath string) error
	// Remove deletes path; removing a missing path is an error.
	Remove(path string) error
	// Exists reports whether path exists (file or directory).
	Exists(path string) bool
	// SyncDir makes a just-renamed entry of dir durable.
	SyncDir(dir string) error
}

// DirBackend is the production Backend: a local directory tree driven
// through the os package. The zero value is ready to use.
type DirBackend struct{}

// EnsureDir implements Backend.
func (DirBackend) EnsureDir(dir string) error { return os.MkdirAll(dir, 0o755) }

// ListFiles implements Backend.
func (DirBackend) ListFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		names = append(names, e.Name())
	}
	return names, nil
}

// ReadFile implements Backend.
func (DirBackend) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

// WriteFile implements Backend.
func (DirBackend) WriteFile(path string, data []byte, sync bool) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if sync {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("%w: %v", ErrFsync, err)
		}
	}
	return f.Close()
}

// Rename implements Backend.
func (DirBackend) Rename(oldPath, newPath string) error { return os.Rename(oldPath, newPath) }

// Remove implements Backend.
func (DirBackend) Remove(path string) error { return os.Remove(path) }

// Exists implements Backend.
func (DirBackend) Exists(path string) bool {
	_, err := os.Lstat(path)
	return err == nil
}

// SyncDir implements Backend.
func (DirBackend) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// MemBackend is an in-memory Backend: process-lifetime durability only,
// used by the service when it has no state directory and by tests. It
// is safe for concurrent use — unlike a Store, a backend is shared by
// every per-tenant store the service opens on it.
type MemBackend struct {
	mu    sync.Mutex
	files map[string][]byte
	dirs  map[string]bool
	// byDir holds each file's path under filepath.Dir of it, so that a
	// listing costs its own directory and not every file a long-lived
	// server has written.
	byDir map[string]map[string]struct{}
}

// NewMemBackend returns an empty in-memory backend.
func NewMemBackend() *MemBackend {
	return &MemBackend{
		files: map[string][]byte{},
		dirs:  map[string]bool{},
		byDir: map[string]map[string]struct{}{},
	}
}

// put stores data at path and indexes a path new to m.
func (m *MemBackend) put(path string, data []byte) {
	if _, ok := m.files[path]; !ok {
		dir := filepath.Dir(path)
		if m.byDir[dir] == nil {
			m.byDir[dir] = map[string]struct{}{}
		}
		m.byDir[dir][path] = struct{}{}
	}
	m.files[path] = data
}

// drop deletes path, which m holds, and its index entry.
func (m *MemBackend) drop(path string) {
	delete(m.files, path)
	dir := filepath.Dir(path)
	delete(m.byDir[dir], path)
	if len(m.byDir[dir]) == 0 {
		delete(m.byDir, dir)
	}
}

// EnsureDir implements Backend.
func (m *MemBackend) EnsureDir(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for d := dir; d != "." && d != "/" && d != ""; d = filepath.Dir(d) {
		m.dirs[d] = true
	}
	return nil
}

// ListFiles implements Backend.
func (m *MemBackend) ListFiles(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirs[dir] {
		return nil, &os.PathError{Op: "open", Path: dir, Err: os.ErrNotExist}
	}
	var names []string
	for path := range m.byDir[dir] {
		names = append(names, filepath.Base(path))
	}
	sort.Strings(names)
	return names, nil
}

// ReadFile implements Backend.
func (m *MemBackend) ReadFile(path string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[path]
	if !ok {
		return nil, &os.PathError{Op: "open", Path: path, Err: os.ErrNotExist}
	}
	return append([]byte(nil), data...), nil
}

// WriteFile implements Backend.
func (m *MemBackend) WriteFile(path string, data []byte, sync bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.put(path, append([]byte(nil), data...))
	return nil
}

// Rename implements Backend.
func (m *MemBackend) Rename(oldPath, newPath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[oldPath]
	if !ok {
		return &os.PathError{Op: "rename", Path: oldPath, Err: os.ErrNotExist}
	}
	if newPath == oldPath {
		return nil // as os.Rename: the file stays where it is
	}
	m.put(newPath, data)
	m.drop(oldPath)
	return nil
}

// Remove implements Backend.
func (m *MemBackend) Remove(path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[path]; !ok {
		return &os.PathError{Op: "remove", Path: path, Err: os.ErrNotExist}
	}
	m.drop(path)
	return nil
}

// Exists implements Backend.
func (m *MemBackend) Exists(path string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[path]; ok {
		return true
	}
	return m.dirs[path]
}

// SyncDir implements Backend.
func (m *MemBackend) SyncDir(dir string) error { return nil }
