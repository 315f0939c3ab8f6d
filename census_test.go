package repro_test

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// censusStructs are the option structs a deployment configures. Every
// exported field must be set by some non-test file outside its own
// package, or by the root ablation benchmarks; a field only tests set
// is a configuration nobody runs, and belongs in a constant. Go that
// CI writes out from a workflow script is not scanned, so such drivers
// must not set these fields.
var censusStructs = []struct{ pkg, name string }{
	{"repro/internal/core", "Config"},
	{"repro/internal/service", "Options"},
	{"repro/internal/service", "ClientOptions"},
	{"repro/internal/supervise", "Config"},
	{"repro/internal/store", "Options"},
	{"repro/internal/faults", "Config"},
	{"repro/internal/hw/pt", "Config"},
	{"repro/internal/shard", "WorkerOptions"},
	{"repro/internal/service/agent", "Config"},
}

// censusSeams are the fields that exist so a test can substitute a fake
// clock or sleep, or inject the disk and straggler faults no deployment
// asks for; production leaves them zero on purpose.
var censusSeams = map[string]bool{
	"service.Options.Now":         true,
	"service.ClientOptions.Sleep": true,
	"agent.Config.Sleep":          true,
	"agent.Config.Delay":          true,
	"faults.Config.DiskRate":      true,
	"faults.Config.SlowRate":      true,
	"store.Options.Faults":        true,
}

// TestOptionCensus type-checks the module from source and lists every
// exported option field nothing outside its package sets. Writing the
// field, taking its address (a flag binds there) and naming it in a
// composite literal set it; so does calling an exported function of
// its package that names it in a literal, the way the CLI's
// faults.Composite(seed, rate) sets every per-run rate.
func TestOptionCensus(t *testing.T) {
	l := newCensusLoader(t)
	fields := map[*types.Var]string{}
	for _, s := range censusStructs {
		obj, ok := l.load(s.pkg).pkg.Scope().Lookup(s.name).(*types.TypeName)
		if !ok {
			t.Fatalf("%s.%s: no such type", s.pkg, s.name)
		}
		st := obj.Type().Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() {
				fields[f] = path.Base(s.pkg) + "." + s.name + "." + f.Name()
			}
		}
	}

	setters := l.setters()
	ctors := map[types.Object][]*types.Var{}
	for _, p := range setters {
		for _, f := range p.files {
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || fn.Recv != nil || !fn.Name.IsExported() || fn.Body == nil {
					continue
				}
				obj := p.info.Defs[fn.Name]
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					if kv, ok := n.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok {
							if v, ok := p.info.Uses[key].(*types.Var); ok && v.IsField() {
								ctors[obj] = append(ctors[obj], v)
							}
						}
					}
					return true
				})
			}
		}
	}

	set := map[*types.Var]bool{}
	for _, p := range setters {
		mark := func(obj types.Object) {
			if f, ok := obj.(*types.Var); ok && f.Pkg() != nil && f.Pkg().Path() != p.path {
				set[f] = true
			}
		}
		selected := func(e ast.Expr) {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				if s := p.info.Selections[sel]; s != nil {
					mark(s.Obj())
				}
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						selected(lhs)
					}
				case *ast.IncDecStmt:
					selected(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND { // &opts.F: a flag binds into it
						selected(n.X)
					}
				case *ast.KeyValueExpr:
					if key, ok := n.Key.(*ast.Ident); ok {
						mark(p.info.Uses[key])
					}
				case *ast.CallExpr:
					var callee *ast.Ident
					switch fn := ast.Unparen(n.Fun).(type) {
					case *ast.Ident:
						callee = fn
					case *ast.SelectorExpr:
						callee = fn.Sel
					}
					if callee != nil {
						for _, f := range ctors[p.info.Uses[callee]] {
							mark(f)
						}
					}
				}
				return true
			})
		}
	}

	var unset []string
	for f, name := range fields {
		if !set[f] && !censusSeams[name] {
			unset = append(unset, name)
		}
	}
	sort.Strings(unset)
	if len(unset) > 0 {
		t.Errorf("%d option fields are set by nothing outside their package but tests; make each a constant:\n\t%s",
			len(unset), strings.Join(unset, "\n\t"))
	}
}

// censusPkg is one type-checked package: its import path, the files
// the census reads and what the checker resolved in them.
type censusPkg struct {
	path  string
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// censusLoader type-checks the module's non-test packages from source.
// Standard-library imports resolve to empty packages: what they declare
// fails to resolve and is ignored, which leaves every selector and
// literal key on a module type resolved exactly.
type censusLoader struct {
	t    *testing.T
	fset *token.FileSet
	dirs map[string]string // import path → directory
	pkgs map[string]*censusPkg
}

const censusModule = "repro"

func newCensusLoader(t *testing.T) *censusLoader {
	l := &censusLoader{t: t, fset: token.NewFileSet(), dirs: map[string]string{}, pkgs: map[string]*censusPkg{}}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		imp := censusModule
		if p != "." {
			imp += "/" + filepath.ToSlash(p)
		}
		l.dirs[imp] = p
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// setters returns every package whose non-test files may set an option
// field, plus the root ablation benchmarks.
func (l *censusLoader) setters() []*censusPkg {
	var out []*censusPkg
	for imp := range l.dirs {
		if p := l.load(imp); len(p.files) > 0 {
			out = append(out, p)
		}
	}
	return append(out, l.check(censusModule+"_test", []string{"bench_test.go"}))
}

func (l *censusLoader) load(imp string) *censusPkg {
	if p := l.pkgs[imp]; p != nil {
		return p
	}
	var names []string
	if bp, err := build.ImportDir(l.dirs[imp], 0); err == nil {
		for _, n := range bp.GoFiles {
			names = append(names, filepath.Join(l.dirs[imp], n))
		}
	}
	p := l.check(imp, names)
	l.pkgs[imp] = p
	return p
}

func (l *censusLoader) check(imp string, names []string) *censusPkg {
	p := &censusPkg{path: imp, info: &types.Info{
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
	}}
	for _, n := range names {
		f, err := parser.ParseFile(l.fset, n, nil, 0)
		if err != nil {
			l.t.Fatal(err)
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l, Error: func(error) {}}
	p.pkg, _ = conf.Check(imp, l.fset, p.files, p.info)
	return p
}

// Import implements types.Importer.
func (l *censusLoader) Import(imp string) (*types.Package, error) {
	if _, ok := l.dirs[imp]; ok {
		return l.load(imp).pkg, nil
	}
	std := types.NewPackage(imp, path.Base(imp))
	std.MarkComplete()
	return std, nil
}
