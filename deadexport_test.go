package oasis_test

// The dead-export audit: every exported top-level identifier in internal/
// must be referenced by some non-test file of the module, bench/ and the
// examples included. An export that only tests call is either dead code
// or a test oracle that belongs in a _test.go file. Methods are not
// scanned.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// deadExportAllowlist names exports kept on purpose although no non-test
// file references them, as "importpath.Name", each with its reason.
var deadExportAllowlist = map[string]string{
	// Whole-input codec entry points the certificate and journal fuzzers
	// round-trip through; the live paths decode from the front of a
	// larger buffer.
	"repro/internal/cert.DecodeRMCBinary":         "FuzzRMCBinaryRoundTrip, FuzzDecodeCertBinary",
	"repro/internal/cert.EncodeAppointmentBinary": "FuzzAppointmentBinaryRoundTrip, FuzzDecodeCertBinary",
	"repro/internal/cert.DecodeAppointmentBinary": "FuzzAppointmentBinaryRoundTrip, FuzzDecodeCertBinary",
	"repro/internal/durable.ReadRecordBinary":     "FuzzJournalRecordRoundTrip",
	// Test oracles that tests in other packages read, so they cannot
	// move into one package's _test.go file.
	"repro/internal/durable.ReadState": "replica tests: offline state a follower must converge to",
	"repro/internal/names.InternStats": "workload churn harness: intern table footprint",
}

func TestNoDeadExports(t *testing.T) {
	dead, err := deadExports(".")
	if err != nil {
		t.Fatal(err)
	}
	var unlisted []string
	for _, d := range dead {
		if _, ok := deadExportAllowlist[d]; !ok {
			unlisted = append(unlisted, d)
		}
	}
	if len(unlisted) > 0 {
		t.Errorf("exported identifiers no non-test file references (delete them, move them into a _test.go file, or allowlist them with a reason):\n\t%s",
			strings.Join(unlisted, "\n\t"))
	}
	live := make(map[string]bool, len(dead))
	for _, d := range dead {
		live[d] = true
	}
	for name := range deadExportAllowlist {
		if !live[name] {
			t.Errorf("allowlisted %s is referenced (or gone): drop it from the allowlist", name)
		}
	}
}

// The scan must catch a dead export: the fixture tree holds one beside a
// used export, a method and an export only its test calls.
func TestDeadExportScanFlagsFixture(t *testing.T) {
	dead, err := deadExports(filepath.Join("testdata", "deadexport"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"fixture/internal/lib.Dead", "fixture/internal/lib.OnlyTested"}
	if !reflect.DeepEqual(dead, want) {
		t.Errorf("dead exports = %q, want %q", dead, want)
	}
}

// deadExports parses every .go file under root (a module root) and
// returns the exported top-level identifiers declared in non-test files
// under internal/ that no non-test file references, sorted, as
// "importpath.Name".
func deadExports(root string) ([]string, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	var modPath string
	for _, line := range strings.Split(string(mod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			modPath = f[1]
		}
	}

	type parsed struct {
		pkg  string // import path
		file *ast.File
	}
	var files []parsed
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); p != root && (n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		files = append(files, parsed{pkg: path.Join(modPath, filepath.ToSlash(rel)), file: f})
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Package names by import path, for resolving unnamed imports.
	pkgName := make(map[string]string)
	for _, f := range files {
		pkgName[f.pkg] = f.file.Name.Name
	}

	declared := make(map[string]bool)
	used := make(map[string]bool)
	internal := path.Join(modPath, "internal") + "/"
	for _, f := range files {
		// Identifiers that name something rather than refer to it.
		naming := make(map[*ast.Ident]bool)
		for _, decl := range f.file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				naming[d.Name] = true
				if d.Recv == nil && d.Name.IsExported() && strings.HasPrefix(f.pkg, internal) {
					declared[f.pkg+"."+d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					var idents []*ast.Ident
					switch s := spec.(type) {
					case *ast.TypeSpec:
						idents = []*ast.Ident{s.Name}
					case *ast.ValueSpec:
						idents = s.Names
					}
					for _, id := range idents {
						naming[id] = true
						if id.IsExported() && strings.HasPrefix(f.pkg, internal) {
							declared[f.pkg+"."+id.Name] = true
						}
					}
				}
			}
		}

		imports := make(map[string]string) // local name -> import path
		for _, im := range f.file.Imports {
			p, err := strconv.Unquote(im.Path.Value)
			if err != nil {
				return nil, err
			}
			name := pkgName[p]
			if name == "" {
				name = path.Base(p)
			}
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = p
		}

		// Selected names are fields, methods or imported identifiers,
		// never this package's own top-level names.
		ast.Inspect(f.file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				naming[x.Sel] = true
				if id, ok := x.X.(*ast.Ident); ok {
					if p, ok := imports[id.Name]; ok {
						used[p+"."+x.Sel.Name] = true
					}
				}
			case *ast.Field:
				for _, id := range x.Names {
					naming[id] = true
				}
			}
			return true
		})
		ast.Inspect(f.file, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !naming[id] {
				used[f.pkg+"."+id.Name] = true
			}
			return true
		})
	}

	var dead []string
	for name := range declared {
		if !used[name] {
			dead = append(dead, name)
		}
	}
	sort.Strings(dead)
	return dead, nil
}
