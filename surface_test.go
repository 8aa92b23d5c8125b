package sos

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
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
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if usedIn[id.Name] == nil {
					usedIn[id.Name] = map[string]bool{}
				}
				usedIn[id.Name][path] = true
			}
			return true
		})
		dir := filepath.ToSlash(filepath.Dir(path))
		if !strings.HasPrefix(dir, "internal/") || strings.HasSuffix(dir, "/storetest") || strings.HasSuffix(dir, "/mediumtest") {
			return nil
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			key := dir + "." + fn.Name.Name
			if fn.Recv != nil {
				key = dir + "." + receiverName(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			decls = append(decls, decl{key, path, fset.Position(fn.Pos()).Line})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
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
