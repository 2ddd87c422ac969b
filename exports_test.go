package netdimm

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportAllowlist names internal exports kept without a non-test caller,
// as "importpath.Name" (methods as "importpath.Type.Name"), each with the
// reason it stays: a test in another package needs it, so an
// export_test.go cannot hold it.
var exportAllowlist = map[string]string{
	"netdimm/internal/core.Device.NCache":      "driver's closure-chain reference test floods the nCache and compares its stats",
	"netdimm/internal/core.Device.NMC":         "driver's closure-chain reference test checks it reached nMC rejections",
	"netdimm/internal/nvdimmp.Tracker.Aborted": "memctrl's async-reader tests check that each lost RDY retires through Abort",
}

// exportDecl is one exported top-level identifier of an internal package.
type exportDecl struct {
	pkg, name string // import path and identifier
	recv      string // receiver type name for a method, else ""
	pos       token.Position
	skip      ast.Node // the declaration's own extent: references inside it do not count
}

func (d exportDecl) key() string {
	if d.recv != "" {
		return d.pkg + "." + d.recv + "." + d.name
	}
	return d.pkg + "." + d.name
}

// TestNoUncalledInternalExports keeps the internal API to what the program
// uses: every exported identifier declared under internal/ must be
// referenced from some non-test file of the repository (the root facade,
// cmd/, examples/ and the bench module included). A test-only hook belongs
// in an export_test.go file instead.
//
// A reference is a qualified pkg.Name from another package, a bare
// identifier in the declaring package outside the declaration itself, or,
// for a method, any .Name selector. A method's receiver does not count as
// a use of its type.
func TestNoUncalledInternalExports(t *testing.T) {
	fset := token.NewFileSet()
	type file struct {
		pkg string // import path of the file's package
		f   *ast.File
	}
	var files []file
	err := filepath.WalkDir(".", func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			switch e.Name() {
			case ".git", ".bench_build", "testdata":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, p, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, file{path.Join("netdimm", filepath.ToSlash(filepath.Dir(p))), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Declarations.
	var decls []exportDecl
	for _, fl := range files {
		if !strings.HasPrefix(fl.pkg, "netdimm/internal/") {
			continue
		}
		add := func(id *ast.Ident, recv string, skip ast.Node) {
			if id.IsExported() {
				decls = append(decls, exportDecl{fl.pkg, id.Name, recv, fset.Position(id.Pos()), skip})
			}
		}
		for _, d := range fl.f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				recv := ""
				if d.Recv != nil {
					recv = recvName(d.Recv.List[0].Type)
				}
				add(d.Name, recv, d)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name, "", s)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							add(n, "", s)
						}
					}
				}
			}
		}
	}

	// References, each with its position so a declaration's own extent
	// can be excluded.
	type ref struct {
		pos  token.Pos
		file string
	}
	qualified := map[string][]ref{} // "importpath.Name"
	bare := map[string][]ref{}      // "importpath.Name" within that package
	selectors := map[string][]ref{} // ".Name" anywhere
	for _, fl := range files {
		imports := map[string]string{}
		for _, im := range fl.f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			local := path.Base(p)
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local] = p
		}
		fname := fset.Position(fl.f.Pos()).Filename
		notRef := map[*ast.Ident]bool{} // receivers and method names
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Recv != nil {
					notRef[n.Name] = true
					ast.Inspect(n.Recv, func(m ast.Node) bool {
						if id, ok := m.(*ast.Ident); ok {
							notRef[id] = true
						}
						return true
					})
				}
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if p, ok := imports[x.Name]; ok {
						k := p + "." + n.Sel.Name
						qualified[k] = append(qualified[k], ref{n.Sel.Pos(), fname})
						return false
					}
				}
				selectors[n.Sel.Name] = append(selectors[n.Sel.Name], ref{n.Sel.Pos(), fname})
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				if !notRef[n] {
					k := fl.pkg + "." + n.Name
					bare[k] = append(bare[k], ref{n.Pos(), fname})
				}
			}
			return true
		}
		ast.Inspect(fl.f, visit)
	}

	used := func(d exportDecl, refs []ref) bool {
		for _, r := range refs {
			if r.file != d.pos.Filename || r.pos < d.skip.Pos() || r.pos >= d.skip.End() {
				return true
			}
		}
		return false
	}
	var dead []string
	allowed := map[string]bool{}
	for _, d := range decls {
		k := d.pkg + "." + d.name
		if d.recv != "" && used(d, selectors[d.name]) || d.recv == "" && (used(d, qualified[k]) || used(d, bare[k])) {
			continue
		}
		if _, ok := exportAllowlist[d.key()]; ok {
			allowed[d.key()] = true
			continue
		}
		dead = append(dead, d.pos.String()+": "+d.key())
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s has no non-test reference: delete it, or move it to an export_test.go if tests need it", d)
	}
	for k := range exportAllowlist {
		if !allowed[k] {
			t.Errorf("allowlist entry %s is stale: it is gone or has a non-test reference now", k)
		}
	}
}

// recvName returns the base type name of a method receiver expression.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
