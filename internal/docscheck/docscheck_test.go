// Package docscheck enforces the documentation contract in CI: every
// package carries a package comment, and the exported API surface of the
// user-facing packages (sqlish, plan, exec, server) is fully documented.
// It mirrors revive's "package-comments" and "exported" rules with the
// standard library's go/ast, so the check runs under plain `go test`
// without any external linter installed (revive.toml configures the same
// rules for environments that do have revive). It also keeps the names of
// deleted subsystems out of the tree (deleted_names_test.go).
package docscheck

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// repoRoot walks up from the working directory to the module root.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("docscheck: go.mod not found above working directory")
		}
		dir = parent
	}
}

// parseDir parses the non-test Go files of one directory.
func parseDir(t *testing.T, dir string) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("docscheck: %v", err)
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("docscheck: parsing %s: %v", name, err)
		}
		files = append(files, f)
	}
	return fset, files
}

// TestPackageComments requires a "// Package xxx ..." comment on every
// package under internal/, cmd/ and examples/, plus the public root
// package and the database/sql driver.
func TestPackageComments(t *testing.T) {
	root := repoRoot(t)
	dirs := []string{".", "sqldriver"}
	for _, group := range []string{"internal", "cmd", "examples"} {
		entries, err := os.ReadDir(filepath.Join(root, group))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() {
				dirs = append(dirs, filepath.Join(group, e.Name()))
			}
		}
	}
	for _, rel := range dirs {
		dir := filepath.Join(root, rel)
		_, files := parseDir(t, dir)
		documented := false
		for _, f := range files {
			if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
				documented = true
			}
		}
		if len(files) > 0 && !documented {
			t.Errorf("%s: no file carries a package comment", rel)
		}
	}
}

// TestExportedDocs requires a doc comment on every exported top-level
// declaration (types, funcs, methods on exported types, consts, vars) in
// the packages whose API the docs satellite covers — the public talign
// root package and the database/sql driver included.
func TestExportedDocs(t *testing.T) {
	root := repoRoot(t)
	for _, pkg := range []string{
		"internal/sqlish", "internal/plan", "internal/exec",
		"internal/server", "internal/expr", "internal/stats",
		"internal/opt", "internal/wire", "internal/colbatch",
		"internal/storage", "internal/distsql", "internal/backoff",
		"internal/relation",
		".", "sqldriver",
	} {
		dir := filepath.Join(root, pkg)
		fset, files := parseDir(t, dir)
		for _, f := range files {
			for _, decl := range f.Decls {
				for _, miss := range undocumented(decl) {
					pos := fset.Position(decl.Pos())
					t.Errorf("%s: exported %s lacks a doc comment (%s:%d)",
						pkg, miss, filepath.Base(pos.Filename), pos.Line)
				}
			}
		}
	}
}

// ifaceMethods are method names documented once on the package's central
// interface (plan.Node, exec.ColIterator / exec.BatchSizer, expr.Expr);
// implementations inherit that contract, so re-documenting each of the
// dozens of operator types' Schema/Build/Next/... would be noise. Every
// other exported method still needs its own comment.
var ifaceMethods = map[string]bool{
	// plan.Node
	"Children": true, "Rows": true, "Build": true, "Label": true,
	// exec.ColIterator + exec.BatchSizer (Schema is shared with plan.Node)
	"Schema": true, "Open": true, "NextCol": true, "Close": true, "SetBatchSize": true,
	// expr.Expr + fmt.Stringer
	"Bind": true, "Type": true, "Eval": true, "String": true,
}

// undocumented lists the exported names of decl that no doc comment
// covers. A doc comment on a grouped const/var/type block covers every
// spec in the block (matching revive's exported rule in its default
// configuration).
func undocumented(decl ast.Decl) []string {
	var out []string
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() || d.Doc != nil {
			return nil
		}
		if d.Recv != nil {
			recv := receiverType(d.Recv)
			if recv == "" || !ast.IsExported(recv) {
				return nil
			}
			if ifaceMethods[d.Name.Name] {
				return nil
			}
			return []string{fmt.Sprintf("method %s.%s", recv, d.Name.Name)}
		}
		return []string{"func " + d.Name.Name}
	case *ast.GenDecl:
		if d.Doc != nil {
			return nil // block comment covers the group
		}
		for _, spec := range d.Specs {
			switch sp := spec.(type) {
			case *ast.TypeSpec:
				if sp.Name.IsExported() && sp.Doc == nil && sp.Comment == nil {
					out = append(out, "type "+sp.Name.Name)
				}
			case *ast.ValueSpec:
				if sp.Doc != nil || sp.Comment != nil {
					continue
				}
				for _, name := range sp.Names {
					if name.IsExported() {
						out = append(out, fmt.Sprintf("%s %s", d.Tok, name.Name))
					}
				}
			}
		}
	}
	return out
}

// receiverType extracts the receiver's type name.
func receiverType(recv *ast.FieldList) string {
	if len(recv.List) == 0 {
		return ""
	}
	t := recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if ident, ok := t.(*ast.Ident); ok {
		return ident.Name
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver
		if ident, ok := idx.X.(*ast.Ident); ok {
			return ident.Name
		}
	}
	return ""
}
