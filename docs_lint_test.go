package easydram

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"
)

// TestExportedSymbolsDocumented enforces the repository's documentation
// contract on the public facade (the root package), on the experiments
// package that backs every table and figure, on the emulated-host packages
// the multi-core work touches (workload, core, cpu, cache), and on the
// memory-controller stack (smc, tile, bender, mem): each
// exported symbol — type, function, method on an exported type, const, and
// var — must carry a doc comment. It is the "revive exported"-class check,
// implemented on the standard library's parser so CI needs no extra
// tooling.
func TestExportedSymbolsDocumented(t *testing.T) {
	for _, dir := range []string{
		".",
		"internal/experiments",
		"internal/workload",
		"internal/core",
		"internal/cpu",
		"internal/cache",
		"internal/smc",
		"internal/tile",
		"internal/bender",
		"internal/mem",
	} {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, pkg := range pkgs {
			for _, file := range pkg.Files {
				for _, decl := range file.Decls {
					checkDecl(t, fset, decl)
				}
			}
		}
	}
}

func checkDecl(t *testing.T, fset *token.FileSet, decl ast.Decl) {
	t.Helper()
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() || !exportedReceiver(d) {
			return
		}
		if d.Doc == nil {
			t.Errorf("%s: exported %s %q has no doc comment",
				fset.Position(d.Pos()), declKind(d), d.Name.Name)
		}
	case *ast.GenDecl:
		if d.Tok != token.TYPE && d.Tok != token.CONST && d.Tok != token.VAR {
			return
		}
		for _, spec := range d.Specs {
			var names []*ast.Ident
			var doc *ast.CommentGroup
			var comment *ast.CommentGroup
			switch s := spec.(type) {
			case *ast.TypeSpec:
				names, doc, comment = []*ast.Ident{s.Name}, s.Doc, s.Comment
			case *ast.ValueSpec:
				names, doc, comment = s.Names, s.Doc, s.Comment
			}
			for _, n := range names {
				if !n.IsExported() {
					continue
				}
				// A group doc, a per-spec doc, or a trailing line comment
				// all count (const blocks conventionally document the
				// group and annotate members inline).
				if d.Doc == nil && doc == nil && comment == nil {
					t.Errorf("%s: exported %s %q has no doc comment",
						fset.Position(n.Pos()), strings.ToLower(d.Tok.String()), n.Name)
				}
			}
		}
	}
}

// exportedReceiver reports whether f is a plain function or a method whose
// receiver type is itself exported (methods on unexported types are not
// part of the documented surface).
func exportedReceiver(f *ast.FuncDecl) bool {
	if f.Recv == nil || len(f.Recv.List) == 0 {
		return true
	}
	typ := f.Recv.List[0].Type
	for {
		switch tt := typ.(type) {
		case *ast.StarExpr:
			typ = tt.X
		case *ast.IndexExpr:
			typ = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return true
		}
	}
}

func declKind(f *ast.FuncDecl) string {
	if f.Recv != nil {
		return "method"
	}
	return "func"
}
