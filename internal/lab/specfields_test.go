package lab

import (
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// specFieldsAllowed lists the spec fields, by key path, that no committed
// spec under examples/ may set, each with its reason. A new entry needs a
// reason that is not a test: the list is the ratchet, as surfaceAllowed
// is for exported names.
var specFieldsAllowed = map[string]string{}

// TestSpecFieldsHaveCommittedSpecs is the spec twin of the surface tests
// in the root package: a field of the lab's JSON input is product
// surface, with its own validation, defaults and docs, so some committed
// spec under examples/ must set it. It fails, naming the key path (such
// as "store.quota" or "churn[].at"), on every field of Spec and the types
// it nests that no such spec sets: commit a spec that a CI step runs and
// gates, or delete the field.
func TestSpecFieldsHaveCommittedSpecs(t *testing.T) {
	var fields []string
	specFieldPaths(reflect.TypeOf(Spec{}), "", &fields)
	sort.Strings(fields)

	set := map[string]bool{}
	root := filepath.Join("..", "..", "examples")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".json" {
			return err
		}
		if _, err := LoadSpec(path); err != nil {
			t.Errorf("%s: %v", path, err)
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var doc any
		if err := json.Unmarshal(raw, &doc); err != nil {
			return err
		}
		jsonKeyPaths(doc, "", set)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(set) == 0 {
		t.Fatalf("no spec found under %s", root)
	}

	known := map[string]bool{}
	for _, f := range fields {
		known[f] = true
		_, allowed := specFieldsAllowed[f]
		switch {
		case set[f] && allowed:
			t.Errorf("%s is allowed but a committed spec sets it now; drop it from specFieldsAllowed", f)
		case !set[f] && !allowed:
			t.Errorf("spec field %s is set by no committed spec under examples/: commit a spec that sets it, or delete the field", f)
		}
	}
	for f := range specFieldsAllowed {
		if !known[f] {
			t.Errorf("%s is allowed but is no spec field; drop it from specFieldsAllowed", f)
		}
	}
}

// specFieldPaths appends the key path of every JSON field of struct type
// typ under prefix, recursing into nested structs ("store.quota") and
// slice elements ("churn[].at"); only leaf paths are appended.
func specFieldPaths(typ reflect.Type, prefix string, out *[]string) {
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if !f.IsExported() || name == "-" {
			continue
		}
		if name == "" {
			name = f.Name
		}
		path := prefix + name
		ft := f.Type
		if ft.Kind() == reflect.Pointer {
			ft = ft.Elem()
		}
		switch {
		case ft.Kind() == reflect.Struct:
			specFieldPaths(ft, path+".", out)
		case ft.Kind() == reflect.Slice && ft.Elem().Kind() == reflect.Struct:
			specFieldPaths(ft.Elem(), path+"[].", out)
		default:
			*out = append(*out, path)
		}
	}
}

// jsonKeyPaths records in set the key path of every object key in v,
// in the form specFieldPaths gives.
func jsonKeyPaths(v any, prefix string, set map[string]bool) {
	switch x := v.(type) {
	case map[string]any:
		for k, val := range x {
			set[prefix+k] = true
			switch val.(type) {
			case map[string]any:
				jsonKeyPaths(val, prefix+k+".", set)
			case []any:
				jsonKeyPaths(val, prefix+k+"[].", set)
			}
		}
	case []any:
		for _, el := range x {
			jsonKeyPaths(el, prefix, set)
		}
	}
}
