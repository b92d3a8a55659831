package barrierpoint_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceAllow lists the declarations that may live without a non-test
// reference inside the module, each group with the reason it stays. Everything
// else outside package barrierpoint must have a caller: a declaration only its
// own unit test reaches is dead surface (delete both), and new API lands
// together with the code that uses it.
var surfaceAllow = map[string]bool{
	// Imported by bench/, the end-to-end benchmark (its own module).
	"internal/adaptive.Intervals":      true,
	"internal/farm.NewDurableQueue":    true,
	"internal/obs.SpanData.StageSumNs": true,
	"internal/store.OpenWAL":           true,
	"internal/store.Store.GetProfile":  true,
	"internal/store.Store.PutProfile":  true,
	"internal/warmup.Capture":          true,

	// Methods of a type package barrierpoint re-exports (bp.RegionResult).
	"internal/sim.RegionResult.DRAMAPKI": true,
	"internal/sim.RegionResult.Instrs":   true,

	// Reference implementations the optimized paths are tested against.
	"internal/bbv.Collect":           true,
	"internal/bbv.ManhattanDistance": true,
	"internal/cluster.projEntry":     true,
	"internal/ldv.Collect":           true,
	"internal/store.ReaderKey":       true,

	// Fixtures, inspectors and drivers of other declarations' tests (several
	// from other packages): the small machine, cache-content queries, one
	// task start to finish, span lookup (a job's, and the in-process
	// workers' a queue keeps), fault-injection bookkeeping, a replay
	// cache's counters.
	"internal/bbv.New":                     true,
	"internal/bbv.Vector.Add":              true,
	"internal/bbv.Vector.Get":              true,
	"internal/farm.Executor.Execute":       true,
	"internal/farm.Queue.WorkerSpans":      true,
	"internal/fault.Injector.Hits":         true,
	"internal/fault.Reset":                 true,
	"internal/obs.SpanRecorder.ByTrace":    true,
	"internal/service.Manager.Spans":       true,
	"internal/sim.Machine.CheckInclusion":  true,
	"internal/sim.Machine.Counters":        true,
	"internal/sim.Machine.L1DHas":          true,
	"internal/sim.Machine.L2Has":           true,
	"internal/sim.Machine.L2Occupancy":     true,
	"internal/sim.Machine.LLCOccupancy":    true,
	"internal/sim.Tiny":                    true,
	"internal/sparse.Table.Cap":            true,
	"internal/store.Store.RemoveArtifact":  true,
	"internal/tracefile.RegionCache.Stats": true,
}

// TestSurface type-checks every non-test file of the module (bench/ is its
// own module and only shows up through the allowlist) and fails on a
// package-level declaration or method outside package barrierpoint — whose
// exported names are the public API — that no non-test code refers to.
func TestSurface(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard-library packages it imports from source")
	}
	const module = "barrierpoint"
	fset := token.NewFileSet()
	files := make(map[string][]*ast.File) // import path → non-test files
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name[0] == '.' || name == "bench" || name == "testdata" || name == "docs") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := module
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			pkg += "/" + dir
		}
		files[pkg] = append(files[pkg], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	info := &types.Info{
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
		Types: make(map[ast.Expr]types.TypeAndValue),
	}
	imp := &moduleImporter{
		files: files, fset: fset, info: info,
		std:  importer.ForCompiler(fset, "source", nil),
		done: make(map[string]*types.Package),
	}
	for path := range files {
		if _, err := imp.Import(path); err != nil {
			t.Fatal(err)
		}
	}

	// A method counts as used when its type satisfies, through it, an
	// interface the module names (its own, io.Reader, http.Handler, error, ...),
	// one it writes out in place (x.(interface{ Seed(...) })), or fmt.Stringer,
	// which fmt's verbs call without naming it.
	used := make(map[types.Object]bool)
	var ifaces []*types.Interface
	addIface := func(obj types.Object) {
		if tn, ok := obj.(*types.TypeName); ok {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
	}
	fmtPkg, err := imp.Import("fmt")
	if err != nil {
		t.Fatal(err)
	}
	addIface(fmtPkg.Scope().Lookup("Stringer"))
	for _, obj := range info.Defs {
		addIface(obj)
	}
	for expr, tv := range info.Types {
		if _, ok := expr.(*ast.InterfaceType); ok {
			ifaces = append(ifaces, tv.Type.(*types.Interface))
		}
	}
	for _, obj := range info.Uses {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin() // a method of an instantiated generic type
		case *types.Var:
			obj = o.Origin()
		}
		if !used[obj] {
			used[obj] = true
			addIface(obj)
		}
	}
	implements := func(fn *types.Func, recv types.Type) bool {
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == fn.Name() && (types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it)) {
					return true
				}
			}
		}
		return false
	}
	var dead []string
	allowed := make(map[string]bool)
	for id, obj := range info.Defs {
		if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() == module || id.Name == "_" || used[obj] {
			continue
		}
		name := obj.Name()
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				rt := recv.Type()
				if p, ok := rt.(*types.Pointer); ok {
					rt = p.Elem()
				}
				if implements(fn, rt) {
					continue
				}
				name = rt.(*types.Named).Obj().Name() + "." + name
			} else if name == "main" || name == "init" {
				continue
			}
		} else if obj.Parent() != obj.Pkg().Scope() {
			continue // a local, a field, a parameter
		}
		name = strings.TrimPrefix(obj.Pkg().Path(), module+"/") + "." + name
		if surfaceAllow[name] {
			allowed[name] = true
			continue
		}
		dead = append(dead, name+"  ("+fset.Position(id.Pos()).String()+")")
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("no non-test reference: %s", d)
	}
	for name := range surfaceAllow {
		if !allowed[name] {
			t.Errorf("surfaceAllow lists %s, which is gone or has a caller now: drop the entry", name)
		}
	}
}

// moduleImporter type-checks the module's own packages from the parsed
// files, recording into one shared types.Info, and hands everything else to
// the source importer.
type moduleImporter struct {
	files map[string][]*ast.File
	fset  *token.FileSet
	info  *types.Info
	std   types.Importer
	done  map[string]*types.Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := m.done[path]; ok {
		return pkg, nil
	}
	fs, ok := m.files[path]
	if !ok {
		return m.std.Import(path)
	}
	pkg, err := (&types.Config{Importer: m}).Check(path, m.fset, fs, m.info)
	m.done[path] = pkg
	return pkg, err
}
