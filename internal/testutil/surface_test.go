package testutil

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportAllowlist names the exported funcs and methods under internal/ that
// no non-test file outside their package references, each with the reason it
// stays exported. Keys are "pkg.Func" or "pkg.Type.Method".
var exportAllowlist = map[string]string{
	// Interfaces the standard library calls.
	"engine.StageSpec.UnmarshalJSON": "json.Unmarshaler: a config stage may be a number or a name",
	"device.OOMError.Unwrap":         "errors.Is(err, device.ErrOOM) unwraps through it",

	// Test seams other packages' tests need.
	"comm.World.FailRankAfterOps": "engine's TestEngineRunOnFallible kills a rank mid-job",
	"comm.World.WirePool":         "zero's TestTrainerTeardownReleasesWorkspace reads the wire pool's residency",
	"arena.Arena.Resident":        "zero's TestTrainerTeardownReleasesWorkspace reads the wire pool's residency",
	"comm.Comm.Barrier":           "model's and zero's allocation tests line ranks up around the measured step",
	"comm.Scheduler.Barrier":      "engine's TestEngineBoundaryHooksAndLoadClock quiesces every stream before a snapshot",
	"comm.Comm.Subgroup":          "internal/mp's group tests carve arbitrary member lists",
	"model.BuildLayout":           "internal/mp's tests map the serial layout's segments onto Megatron shards",
	"zero.Trainer.GatheredParams": "elastic's resume tests compare full parameter buffers across stages",
	"zero.Trainer.Owned":          "engine's TestEngineTrainBatchDescends checks the accumulator against the rank's shard",
	"optimizer.NewAdam":           "zero's TestStagesMatchSingleProcess steps the single-process Adam reference",
	"losscurve.FitSlope":          "engine's and zero's training goldens assert a descending loss trend",
}

// TestExportedSurfaceHasImporters pins each internal/ package's public
// surface to what other packages' production code uses. A parser-only scan
// of the whole module, cmd/, examples/ and the nested bench/ module included:
// a top-level func counts as referenced when a non-test file outside its
// package writes pkg.Name, a method when such a file selects .Name anywhere.
// Exported methods on unexported types are out of scope (only an interface
// reaches them). internal/testutil is exempt.
func TestExportedSurfaceHasImporters(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	type decl struct {
		key string
		pos token.Position
		dir string // package directory, relative to root
	}
	var decls []decl
	funcRefs := map[string]bool{}              // "internal/pkg.Name"
	methodRefs := map[string]map[string]bool{} // method name → dirs selecting it
	stale := map[string]bool{}
	for k := range exportAllowlist {
		stale[k] = true
	}

	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata" || name == "out") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, filepath.Dir(path))
		rel = filepath.ToSlash(rel)

		if strings.HasPrefix(rel, "internal/") && rel != "internal/testutil" {
			pkg := strings.TrimPrefix(rel, "internal/")
			for _, dd := range f.Decls {
				fd, ok := dd.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				key := pkg + "." + fd.Name.Name
				if fd.Recv != nil {
					recv := receiverType(fd.Recv.List[0].Type)
					if !ast.IsExported(recv) {
						continue
					}
					key = pkg + "." + recv + "." + fd.Name.Name
				}
				decls = append(decls, decl{key, fset.Position(fd.Name.Pos()), rel})
			}
		}

		imports := map[string]string{} // local name → "internal/pkg"
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			if !strings.HasPrefix(p, "repro/internal/") {
				continue
			}
			local := p[strings.LastIndex(p, "/")+1:]
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local] = strings.TrimPrefix(p, "repro/")
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok {
				if p, ok := imports[id.Name]; ok {
					funcRefs[p+"."+sel.Sel.Name] = true
				}
			}
			if methodRefs[sel.Sel.Name] == nil {
				methodRefs[sel.Sel.Name] = map[string]bool{}
			}
			methodRefs[sel.Sel.Name][rel] = true
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var offenders []string
	for _, d := range decls {
		parts := strings.Split(d.key, ".")
		used := false
		if len(parts) == 2 {
			used = funcRefs["internal/"+d.key]
		} else {
			for dir := range methodRefs[parts[2]] {
				if dir != d.dir {
					used = true
					break
				}
			}
		}
		if _, ok := exportAllowlist[d.key]; ok {
			delete(stale, d.key)
			if used {
				t.Errorf("%s is referenced outside its package now: drop its allowlist entry", d.key)
			}
			continue
		}
		if !used {
			rel, _ := filepath.Rel(root, d.pos.Filename)
			offenders = append(offenders, filepath.ToSlash(rel)+":"+strconv.Itoa(d.pos.Line)+": "+d.key)
		}
	}
	sort.Strings(offenders)
	for _, o := range offenders {
		t.Errorf("%s is exported but no non-test file outside its package references it: unexport or delete it", o)
	}
	for k := range stale {
		t.Errorf("allowlist entry %s names no exported func or method: drop it", k)
	}
	t.Logf("%d exported funcs and methods scanned, %d allowlisted", len(decls), len(exportAllowlist))
}

// receiverType returns the base type name of a method receiver: T for T,
// *T, T[P] and *T[P].
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
