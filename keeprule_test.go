package chanalloc_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// facadeDecls parses the package's non-test files and returns every
// exported top-level name with the expressions its signature is made of:
// a function's type (parameters, results, type parameters), a type's
// definition, a constant's or variable's declared type. It also returns
// the package doc comment.
func facadeDecls(t *testing.T) (map[string][]ast.Node, string) {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	decls := map[string][]ast.Node{}
	var doc string
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		if f.Doc != nil {
			doc += f.Doc.Text()
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					decls[d.Name.Name] = []ast.Node{d.Type}
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							sig := []ast.Node{s.Type}
							if s.TypeParams != nil {
								sig = append(sig, s.TypeParams)
							}
							decls[s.Name.Name] = sig
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								var sig []ast.Node
								if s.Type != nil {
									sig = append(sig, s.Type)
								}
								decls[n.Name] = sig
							}
						}
					}
				}
			}
		}
	}
	return decls, doc
}

// paperAPI returns the names listed in the code block of the package
// doc's "What the facade exports" section.
func paperAPI(t *testing.T, doc string) []string {
	t.Helper()
	_, section, ok := strings.Cut(doc, "\n# What the facade exports\n")
	if !ok {
		t.Fatal(`package doc has no "# What the facade exports" section`)
	}
	var names []string
	inBlock := false
	for _, line := range strings.Split(section, "\n") {
		if strings.HasPrefix(line, "\t") {
			inBlock = true
			names = append(names, strings.Fields(line)...)
		} else if inBlock && line != "" {
			break
		}
	}
	if len(names) == 0 {
		t.Fatal(`the "What the facade exports" section lists no names`)
	}
	return names
}

// facadeRef matches a facade name as programs spell it: chanalloc.X, or
// ca.X under e2ebench's import name.
var facadeRef = regexp.MustCompile(`\b(?:chanalloc|ca)\.([A-Z][A-Za-z0-9_]*)`)

// programUses returns every facade name that a non-test Go file under
// cmd/, examples/ or e2ebench/ spells, in code or in its documentation.
func programUses(t *testing.T) map[string]bool {
	t.Helper()
	used := map[string]bool{}
	for _, root := range []string{"cmd", "examples", "e2ebench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range facadeRef.FindAllSubmatch(src, -1) {
				used[string(m[1])] = true
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return used
}

// TestFacadeKeepRule enforces the package doc's rule for what the facade
// exports: every exported top-level name is on the doc's list of the
// paper's API, or is used by a program under cmd/, examples/ or e2ebench/,
// or is named in the signature of a name kept by either. A name that none
// of these keeps is dead weight in the public API and fails the test, so
// the facade cannot grow back what nothing uses.
func TestFacadeKeepRule(t *testing.T) {
	decls, doc := facadeDecls(t)
	kept := map[string]bool{}
	var queue []string
	keep := func(name string) {
		if _, ok := decls[name]; ok && !kept[name] {
			kept[name] = true
			queue = append(queue, name)
		}
	}
	for _, name := range paperAPI(t, doc) {
		if _, ok := decls[name]; !ok {
			t.Errorf("the package doc lists %s, which the package does not export", name)
		}
		keep(name)
	}
	for name := range programUses(t) {
		keep(name)
	}
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		for _, n := range decls[name] {
			ast.Inspect(n, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					return false // pkg.Name names another package
				case *ast.Ident:
					keep(n.Name)
				}
				return true
			})
		}
	}
	var unkept []string
	for name := range decls {
		if !kept[name] {
			unkept = append(unkept, name)
		}
	}
	sort.Strings(unkept)
	for _, name := range unkept {
		t.Errorf("%s is exported but neither on the paper's API list nor used by cmd/, examples/ or e2ebench/, nor needed by a kept signature", name)
	}
}
