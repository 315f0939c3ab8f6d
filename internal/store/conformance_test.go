package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// TestBackendConformance runs one behavioral suite against every
// Backend implementation. The shard fleet treats the Backend interface
// as its only shared medium, so the two implementations must agree on
// every observable detail: list contents and ordering, read-your-write,
// atomic rename over an existing file, remove semantics, and existence
// checks for files and directories alike.
func TestBackendConformance(t *testing.T) {
	impls := []struct {
		name string
		open func(t *testing.T) (b Backend, root string)
	}{
		{"DirBackend", func(t *testing.T) (Backend, string) { return DirBackend{}, t.TempDir() }},
		{"MemBackend", func(t *testing.T) (Backend, string) { return NewMemBackend(), "root" }},
	}
	for _, impl := range impls {
		t.Run(impl.name, func(t *testing.T) {
			b, root := impl.open(t)
			dir := filepath.Join(root, "tenant")

			// EnsureDir creates parents and is idempotent.
			if err := b.EnsureDir(dir); err != nil {
				t.Fatalf("EnsureDir: %v", err)
			}
			if err := b.EnsureDir(dir); err != nil {
				t.Fatalf("EnsureDir (again): %v", err)
			}
			if !b.Exists(dir) {
				t.Fatalf("Exists(%s) = false after EnsureDir", dir)
			}

			// Listing a missing directory is an error, not an empty list.
			if _, err := b.ListFiles(filepath.Join(root, "no-such-dir")); err == nil {
				t.Fatalf("ListFiles on a missing dir succeeded")
			}

			// Reading a missing file reports os.ErrNotExist.
			if _, err := b.ReadFile(filepath.Join(dir, "missing")); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("ReadFile missing file: err = %v, want os.ErrNotExist", err)
			}

			// Write, then read-your-write.
			path := func(name string) string { return filepath.Join(dir, name) }
			if err := b.WriteFile(path("b.ckpt"), []byte("bravo"), true); err != nil {
				t.Fatalf("WriteFile: %v", err)
			}
			if err := b.WriteFile(path("a.ckpt"), []byte("alpha"), false); err != nil {
				t.Fatalf("WriteFile: %v", err)
			}
			got, err := b.ReadFile(path("a.ckpt"))
			if err != nil || !bytes.Equal(got, []byte("alpha")) {
				t.Fatalf("ReadFile = %q, %v; want alpha", got, err)
			}

			// Rewriting truncates: the new content fully replaces the old,
			// even when shorter.
			if err := b.WriteFile(path("a.ckpt"), []byte("al"), false); err != nil {
				t.Fatalf("WriteFile (rewrite): %v", err)
			}
			if got, _ := b.ReadFile(path("a.ckpt")); !bytes.Equal(got, []byte("al")) {
				t.Fatalf("rewrite did not truncate: %q", got)
			}

			// Reads are isolated from later writes: mutating a returned
			// slice must not corrupt the stored bytes.
			snap, _ := b.ReadFile(path("a.ckpt"))
			if len(snap) > 0 {
				snap[0] = 'X'
			}
			if got, _ := b.ReadFile(path("a.ckpt")); !bytes.Equal(got, []byte("al")) {
				t.Fatalf("stored bytes aliased by a reader: %q", got)
			}

			// ListFiles returns names (not paths), sorted, files only.
			if err := b.EnsureDir(filepath.Join(dir, "subdir")); err != nil {
				t.Fatalf("EnsureDir subdir: %v", err)
			}
			names, err := b.ListFiles(dir)
			if err != nil {
				t.Fatalf("ListFiles: %v", err)
			}
			want := []string{"a.ckpt", "b.ckpt"}
			if len(names) != len(want) || !sort.StringsAreSorted(names) {
				t.Fatalf("ListFiles = %v, want sorted %v (directories excluded)", names, want)
			}
			for i := range want {
				if names[i] != want[i] {
					t.Fatalf("ListFiles = %v, want %v", names, want)
				}
			}

			// Rename is atomic publish: source gone, target has the bytes.
			if err := b.WriteFile(path("c.tmp"), []byte("charlie"), false); err != nil {
				t.Fatalf("WriteFile: %v", err)
			}
			if err := b.Rename(path("c.tmp"), path("c.ckpt")); err != nil {
				t.Fatalf("Rename: %v", err)
			}
			if b.Exists(path("c.tmp")) {
				t.Fatalf("Rename left the source behind")
			}
			if got, _ := b.ReadFile(path("c.ckpt")); !bytes.Equal(got, []byte("charlie")) {
				t.Fatalf("Rename target = %q, want charlie", got)
			}

			// Rename over an existing file replaces it — the lease table
			// and checkpoint store both publish over old generations.
			if err := b.WriteFile(path("c2.tmp"), []byte("charlie-2"), false); err != nil {
				t.Fatalf("WriteFile: %v", err)
			}
			if err := b.Rename(path("c2.tmp"), path("c.ckpt")); err != nil {
				t.Fatalf("Rename over existing: %v", err)
			}
			if got, _ := b.ReadFile(path("c.ckpt")); !bytes.Equal(got, []byte("charlie-2")) {
				t.Fatalf("Rename over existing = %q, want charlie-2", got)
			}

			// A rename onto the source's own path leaves the file in
			// place, listed once.
			if err := b.Rename(path("c.ckpt"), path("c.ckpt")); err != nil {
				t.Fatalf("Rename onto itself: %v", err)
			}
			if got, err := b.ReadFile(path("c.ckpt")); err != nil || !bytes.Equal(got, []byte("charlie-2")) {
				t.Fatalf("after a self-rename ReadFile = %q, %v; want charlie-2", got, err)
			}
			if names, err := b.ListFiles(dir); err != nil || fmt.Sprint(names) != "[a.ckpt b.ckpt c.ckpt]" {
				t.Fatalf("after a self-rename ListFiles = %v, %v; want [a.ckpt b.ckpt c.ckpt]", names, err)
			}

			// Renaming a missing source is an error.
			if err := b.Rename(path("ghost"), path("g.ckpt")); err == nil {
				t.Fatalf("Rename of a missing source succeeded")
			}

			// Remove deletes; removing again is an error (the lease
			// protocol relies on delete-once semantics for intents).
			if err := b.Remove(path("c.ckpt")); err != nil {
				t.Fatalf("Remove: %v", err)
			}
			if b.Exists(path("c.ckpt")) {
				t.Fatalf("Exists = true after Remove")
			}
			if err := b.Remove(path("c.ckpt")); err == nil {
				t.Fatalf("Remove of a missing file succeeded")
			}

			// A rename across directories shows in both listings.
			other := filepath.Join(root, "other")
			if err := b.EnsureDir(other); err != nil {
				t.Fatalf("EnsureDir other: %v", err)
			}
			if err := b.Rename(path("a.ckpt"), filepath.Join(other, "a.ckpt")); err != nil {
				t.Fatalf("Rename across directories: %v", err)
			}
			if names, err := b.ListFiles(dir); err != nil || fmt.Sprint(names) != "[b.ckpt]" {
				t.Fatalf("ListFiles(source dir) = %v, %v; want [b.ckpt]", names, err)
			}
			if names, err := b.ListFiles(other); err != nil || fmt.Sprint(names) != "[a.ckpt]" {
				t.Fatalf("ListFiles(target dir) = %v, %v; want [a.ckpt]", names, err)
			}

			// A directory whose files were all removed lists empty.
			if err := b.Remove(filepath.Join(other, "a.ckpt")); err != nil {
				t.Fatalf("Remove: %v", err)
			}
			if names, err := b.ListFiles(other); err != nil || len(names) != 0 {
				t.Fatalf("ListFiles(emptied dir) = %v, %v; want empty, no error", names, err)
			}

			// SyncDir on an existing directory succeeds.
			if err := b.SyncDir(dir); err != nil {
				t.Fatalf("SyncDir: %v", err)
			}
		})
	}
}
