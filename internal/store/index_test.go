package store

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
)

// scanList is MemBackend.ListFiles as a scan of every file the backend
// holds: the reference the directory index must agree with.
func scanList(m *MemBackend, dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirs[dir] {
		return nil, &os.PathError{Op: "open", Path: dir, Err: os.ErrNotExist}
	}
	var names []string
	for path := range m.files {
		if filepath.Dir(path) == dir {
			names = append(names, filepath.Base(path))
		}
	}
	sort.Strings(names)
	return names, nil
}

// TestMemBackendIndexMatchesScan drives MemBackend with seeded random
// sequences of EnsureDir, WriteFile, Rename and Remove, and after every
// operation lists every directory both ways: through the index and by
// scanning every file. Paths come in clean and unclean spellings
// (a//x beside a/x, a/./x, a/x/, a/../a/x), so two files can list under
// one name; renames cross directories, land on existing files and on
// their own source; removes and renames miss. Directories that were
// never made, and unclean spellings of ones that were, must fail or
// list the same way too.
func TestMemBackendIndexMatchesScan(t *testing.T) {
	dirs := []string{"r", "r/a", "r/b", "r/a/c", "s"}
	listed := append(slices.Clone(dirs), "r/", "r//a", ".", "", "t")
	spell := []func(d, n string) string{
		func(d, n string) string { return d + "/" + n },
		func(d, n string) string { return d + "//" + n },
		func(d, n string) string { return d + "/./" + n },
		func(d, n string) string { return d + "/" + n + "/" },
		func(d, n string) string { return d + "/../" + filepath.Base(d) + "/" + n },
	}
	names := []string{"x", "y", "gen-1.ckpt"}
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		path := func() string {
			return spell[rng.Intn(len(spell))](dirs[rng.Intn(len(dirs))], names[rng.Intn(len(names))])
		}
		m := NewMemBackend()
		for op := 0; op < 400; op++ {
			// A rename or remove of a missing path fails and changes
			// nothing; the listings must agree all the same.
			var desc string
			switch k := rng.Intn(10); {
			case k == 0:
				d := listed[rng.Intn(len(listed))]
				desc = "EnsureDir " + d
				m.EnsureDir(d)
			case k < 5:
				p := path()
				desc = "WriteFile " + p
				m.WriteFile(p, []byte(p), false)
			case k < 8:
				from, to := path(), path()
				if rng.Intn(8) == 0 {
					to = from
				}
				desc = fmt.Sprintf("Rename %s %s", from, to)
				m.Rename(from, to)
			default:
				p := path()
				desc = "Remove " + p
				m.Remove(p)
			}
			for _, d := range listed {
				got, gerr := m.ListFiles(d)
				want, werr := scanList(m, d)
				if fmt.Sprint(got, gerr) != fmt.Sprint(want, werr) {
					t.Fatalf("seed %d op %d (%s): ListFiles(%q) = %q, %v; the scan lists %q, %v", seed, op, desc, d, got, gerr, want, werr)
				}
			}
			// The index holds no directory that holds no file.
			held := map[string]bool{}
			for p := range m.files {
				held[filepath.Dir(p)] = true
			}
			if len(m.byDir) != len(held) {
				t.Fatalf("seed %d op %d (%s): the index keeps %d directories, the files are in %d", seed, op, desc, len(m.byDir), len(held))
			}
		}
	}
}

// BenchmarkMemBackendListFiles lists a directory of 10 files on a
// backend that holds 0, 10³ or 10⁵ files in other directories — what a
// server that has served that many checkpoints pays per listing. With
// the directory index the cost is flat in the files elsewhere.
func BenchmarkMemBackendListFiles(b *testing.B) {
	for _, elsewhere := range []int{0, 1e3, 1e5} {
		b.Run(fmt.Sprintf("elsewhere=%d", elsewhere), func(b *testing.B) {
			m := NewMemBackend()
			m.EnsureDir("state/mine")
			for i := 0; i < 10; i++ {
				m.WriteFile(fmt.Sprintf("state/mine/gen-%d.ckpt", i), nil, false)
			}
			for i := 0; i < elsewhere; i++ {
				m.WriteFile(fmt.Sprintf("state/t%d/gen-%d.ckpt", i/4, i%4), nil, false)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if names, err := m.ListFiles("state/mine"); err != nil || len(names) != 10 {
					b.Fatal(names, err)
				}
			}
		})
	}
}
