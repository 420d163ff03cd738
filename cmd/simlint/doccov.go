package main

import (
	"go/ast"
	"go/token"
)

// The doc-coverage analyzer holds the godoc contract: every exported
// name of the public API and of the internal packages is documented. An
// exported const/var/type/func needs a doc comment on its declaration or,
// inside a grouped declaration, on the group or the individual spec (a
// trailing line comment counts). Exported methods of exported types are
// checked too; methods of unexported types are not part of the package's
// godoc and are exempt.

// checkDocs reports every undocumented exported symbol of p and returns
// the number of exported symbols it checked.
func checkDocs(p *Package, rep *Report) int {
	checked := 0
	report := func(pos token.Pos, kind, name string) {
		rep.Add(p.Fset, pos, "doc-coverage", "exported %s %s has no doc comment", kind, name)
	}
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				kind, name := "function", d.Name.Name
				if d.Recv != nil {
					recv := recvName(d.Recv)
					if !ast.IsExported(recv) {
						continue // not part of the package godoc
					}
					kind, name = "method", recv+"."+d.Name.Name
				}
				checked++
				if d.Doc == nil {
					report(d.Pos(), kind, name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if !s.Name.IsExported() {
							continue
						}
						checked++
						if d.Doc == nil && s.Doc == nil && s.Comment == nil {
							report(s.Pos(), "type", s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if !n.IsExported() {
								continue
							}
							checked++
							if d.Doc == nil && s.Doc == nil && s.Comment == nil {
								report(n.Pos(), kindOf(d.Tok), n.Name)
							}
						}
					}
				}
			}
		}
	}
	return checked
}

// recvName extracts a method receiver's type name, unwrapping pointers
// and generic instantiations.
func recvName(fl *ast.FieldList) string {
	if len(fl.List) == 0 {
		return ""
	}
	t := fl.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// kindOf names a value declaration's token for the report.
func kindOf(tok token.Token) string {
	if tok == token.CONST {
		return "const"
	}
	return "var"
}
