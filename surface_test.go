package sos

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

// surfaceAllowed lists the exported functions and methods under internal/
// that may have no caller outside their own file, each with its reason. A
// new entry needs one too: the list is the ratchet.
var surfaceAllowed = map[string]bool{
	// encoding/json calls these through the json.Marshaler and
	// json.Unmarshaler interfaces.
	"internal/lab.Duration.MarshalJSON":   true,
	"internal/lab.Duration.UnmarshalJSON": true,
	// container/heap calls these through heap.Interface.
	"internal/mpc.eventHeap.Push": true,
	"internal/mpc.eventHeap.Pop":  true,
	// The one way TestSyncWithCloud (internal/core) and
	// TestSyncPushesActions (alleyoop) observe what a node uploaded.
	"internal/cloud.Service.SyncedActions": true,
}

// TestExportedSurfaceHasProductCallers fails when an exported function or
// method declared in a non-test file under internal/ is named by no
// non-test Go file other than its own, anywhere in the checkout (the
// benchmark module included). Such a name is surface that only tests use:
// move it into a test file, unexport it, or delete it.
func TestExportedSurfaceHasProductCallers(t *testing.T) {
	type decl struct {
		key, file string
		line      int
	}
	var decls []decl
	// usedIn maps an identifier to the non-test files that contain it.
	usedIn := map[string]map[string]bool{}
	fset, files := parseCheckout(t)
	for _, p := range files {
		ast.Inspect(p.f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if usedIn[id.Name] == nil {
					usedIn[id.Name] = map[string]bool{}
				}
				usedIn[id.Name][p.path] = true
			}
			return true
		})
		if !p.scanned() {
			continue
		}
		for _, d := range p.f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			key := p.dir + "." + fn.Name.Name
			if fn.Recv != nil {
				key = p.dir + "." + receiverName(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			decls = append(decls, decl{key, p.path, fset.Position(fn.Pos()).Line})
		}
	}
	sort.Slice(decls, func(i, j int) bool {
		if decls[i].file != decls[j].file {
			return decls[i].file < decls[j].file
		}
		return decls[i].line < decls[j].line
	})
	allowedSeen := map[string]bool{}
	for _, d := range decls {
		name := d.key[strings.LastIndex(d.key, ".")+1:]
		callers := 0
		for file := range usedIn[name] {
			if file != d.file {
				callers++
			}
		}
		switch {
		case callers > 0:
		case surfaceAllowed[d.key]:
			allowedSeen[d.key] = true
		default:
			t.Errorf("%s:%d: %s has no caller outside its own file", d.file, d.line, d.key)
		}
	}
	for key := range surfaceAllowed {
		if !allowedSeen[key] {
			t.Errorf("%s is allowed but not needed: it is gone or has a caller now; drop it from surfaceAllowed", key)
		}
	}
}

// receiverName returns the type name of a method receiver: T for T, *T,
// T[P] and *T[P].
func receiverName(e ast.Expr) string {
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
			return "?"
		}
	}
}

// optionsAllowed lists the exported fields of …Config and …Options structs
// under internal/ that may have no setter outside their own file, each
// with its reason. Like surfaceAllowed, the list is the ratchet.
var optionsAllowed = map[string]bool{
	// The seam through which TestInProcessEndToEnd (internal/lab) watches
	// every node directly, bypassing codec, TCP and exporter, so that it
	// can check what the collector received against what happened.
	"internal/lab.Options.ExtraObserver": true,
	// The radio technology of the simulated fleet. ROADMAP item 7's
	// Bluetooth-vs-P2P-WiFi counterfactual is its named first caller
	// (SimMedium.FrameOverhead stays for the same item).
	"internal/sim.Config.Tech": true,
}

// TestConfigFieldsHaveProductSetters is the field-level twin of
// TestExportedSurfaceHasProductCallers. Every exported field of an
// exported …Config or …Options struct declared in a non-test file under
// internal/ needs a setter in a non-test Go file other than its own,
// anywhere in the checkout (the benchmark module and the conformance
// suites included). A setter is one of:
//   - a keyed composite literal of that type: T{F: …} in its own package,
//     pkg.T{F: …}, or sos.X{F: …} for a root alias type X = pkg.T;
//   - a key of a literal whose type is elided, counted by field name alone;
//   - an assignment x.F = … where x is declared in the same function with
//     type T or *T: as the receiver, a parameter or a var, or by
//     x := T{…} or x := &T{…}.
//
// A field nobody sets is a knob only tests turn: make it a constant.
func TestConfigFieldsHaveProductSetters(t *testing.T) {
	type field struct {
		key, file string
		line      int
	}
	var fields []field
	fset, files := parseCheckout(t)
	for _, p := range files {
		if !p.scanned() {
			continue
		}
		for _, d := range p.f.Decls {
			gen, ok := d.(*ast.GenDecl)
			if !ok || gen.Tok != token.TYPE {
				continue
			}
			for _, spec := range gen.Specs {
				ts := spec.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				name := ts.Name.Name
				if !ok || !ts.Name.IsExported() || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) {
					continue
				}
				for _, fl := range st.Fields.List {
					for _, id := range fl.Names {
						if id.IsExported() {
							fields = append(fields, field{p.dir + "." + name + "." + id.Name, p.path, fset.Position(id.Pos()).Line})
						}
					}
				}
			}
		}
	}

	// The root package's alias types, sos.X = pkg.T, resolved to pkg's
	// directory (the root package's own directory is ".").
	aliases := map[string]string{}
	for _, p := range files {
		if p.dir != "." {
			continue
		}
		imports := importDirs(p.f)
		for _, d := range p.f.Decls {
			gen, ok := d.(*ast.GenDecl)
			if !ok || gen.Tok != token.TYPE {
				continue
			}
			for _, spec := range gen.Specs {
				ts := spec.(*ast.TypeSpec)
				if sel, ok := ts.Type.(*ast.SelectorExpr); ok && ts.Assign.IsValid() {
					if pkg, ok := sel.X.(*ast.Ident); ok && imports[pkg.Name] != "" {
						aliases[ts.Name.Name] = imports[pkg.Name] + "." + sel.Sel.Name
					}
				}
			}
		}
	}

	// setIn maps a field key (dir.T.F) or, for elided literals, a bare
	// field name to the non-test files that set it.
	setIn := map[string]map[string]bool{}
	set := func(key, file string) {
		if setIn[key] == nil {
			setIn[key] = map[string]bool{}
		}
		setIn[key][file] = true
	}
	for _, p := range files {
		imports := importDirs(p.f)
		typeKey := func(e ast.Expr) string {
			if star, ok := e.(*ast.StarExpr); ok {
				e = star.X
			}
			var dir, name string
			switch x := e.(type) {
			case *ast.Ident:
				dir, name = p.dir, x.Name
			case *ast.SelectorExpr:
				pkg, ok := x.X.(*ast.Ident)
				if !ok || imports[pkg.Name] == "" {
					return ""
				}
				dir, name = imports[pkg.Name], x.Sel.Name
			default:
				return ""
			}
			if dir == "." && aliases[name] != "" {
				return aliases[name]
			}
			return dir + "." + name
		}
		ast.Inspect(p.f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncDecl:
				declared := declaredTypes(x, typeKey)
				ast.Inspect(x, func(n ast.Node) bool {
					if as, ok := n.(*ast.AssignStmt); ok {
						for _, lhs := range as.Lhs {
							if sel, ok := lhs.(*ast.SelectorExpr); ok {
								if v, ok := sel.X.(*ast.Ident); ok && declared[v.Name] != "" {
									set(declared[v.Name]+"."+sel.Sel.Name, p.path)
								}
							}
						}
					}
					return true
				})
			case *ast.CompositeLit:
				prefix := ""
				if x.Type != nil {
					if prefix = typeKey(x.Type); prefix == "" {
						return true
					}
					prefix += "."
				}
				for _, elt := range x.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							set(prefix+id.Name, p.path)
						}
					}
				}
			}
			return true
		})
	}

	sort.Slice(fields, func(i, j int) bool {
		if fields[i].file != fields[j].file {
			return fields[i].file < fields[j].file
		}
		return fields[i].line < fields[j].line
	})
	setElsewhere := func(key, own string) bool {
		for file := range setIn[key] {
			if file != own {
				return true
			}
		}
		return false
	}
	allowedSeen := map[string]bool{}
	for _, f := range fields {
		name := f.key[strings.LastIndex(f.key, ".")+1:]
		switch {
		case setElsewhere(f.key, f.file) || setElsewhere(name, f.file):
		case optionsAllowed[f.key]:
			allowedSeen[f.key] = true
		default:
			t.Errorf("%s:%d: %s has no setter outside its own file", f.file, f.line, f.key)
		}
	}
	for key := range optionsAllowed {
		if !allowedSeen[key] {
			t.Errorf("%s is allowed but not needed: it is gone or has a setter now; drop it from optionsAllowed", key)
		}
	}
}

// declaredTypes maps each name declared in fn — its receiver, parameters
// and results, a var with a type, x := T{…} or x := &T{…} — to the key
// typeKey gives its type; a name typeKey cannot resolve is left out.
func declaredTypes(fn *ast.FuncDecl, typeKey func(ast.Expr) string) map[string]string {
	declared := map[string]string{}
	declare := func(names []*ast.Ident, typ ast.Expr) {
		if key := typeKey(typ); key != "" {
			for _, name := range names {
				declared[name.Name] = key
			}
		}
	}
	literalType := func(e ast.Expr) ast.Expr {
		if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
			e = u.X
		}
		if lit, ok := e.(*ast.CompositeLit); ok {
			return lit.Type
		}
		return nil
	}
	ast.Inspect(fn, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Field:
			declare(x.Names, x.Type)
		case *ast.ValueSpec:
			if x.Type != nil {
				declare(x.Names, x.Type)
			}
		case *ast.AssignStmt:
			if x.Tok == token.DEFINE && len(x.Lhs) == len(x.Rhs) {
				for i, rhs := range x.Rhs {
					if v, ok := x.Lhs[i].(*ast.Ident); ok {
						if typ := literalType(rhs); typ != nil {
							declare([]*ast.Ident{v}, typ)
						}
					}
				}
			}
		}
		return true
	})
	return declared
}

// parsedFile is one non-test Go file of the checkout.
type parsedFile struct {
	path, dir string
	f         *ast.File
}

// scanned reports whether the file's declarations are under the surface
// rules: a product package under internal/, not one of the test-support
// packages storetest and mediumtest (the diet command skips them too).
func (p parsedFile) scanned() bool {
	return strings.HasPrefix(p.dir, "internal/") && !strings.HasSuffix(p.dir, "/storetest") && !strings.HasSuffix(p.dir, "/mediumtest")
}

// parseCheckout parses every non-test Go file of the checkout, the
// benchmark module included; hidden directories (.bench_build) and
// testdata are skipped.
func parseCheckout(t *testing.T) (*token.FileSet, []parsedFile) {
	t.Helper()
	var files []parsedFile
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
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
		files = append(files, parsedFile{path, filepath.ToSlash(filepath.Dir(path)), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return fset, files
}

// importDirs maps each of a file's imports of this module ("sos" and
// "sos/…") to the imported package's directory, keyed by the name the
// file uses for it.
func importDirs(f *ast.File) map[string]string {
	dirs := map[string]string{}
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		var dir string
		switch {
		case path == "sos":
			dir = "."
		case strings.HasPrefix(path, "sos/"):
			dir = strings.TrimPrefix(path, "sos/")
		default:
			continue
		}
		name := dir[strings.LastIndex(dir, "/")+1:]
		if dir == "." {
			name = "sos"
		}
		if imp.Name != nil {
			name = imp.Name.Name
		}
		dirs[name] = dir
	}
	return dirs
}
