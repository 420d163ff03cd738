package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The map-range-order analyzer flags `for range` over a map in
// determinism-critical code. Go randomizes map iteration order, so any
// map range whose body is order-sensitive can differ between two runs of
// the same seed — exactly the class of bug the bit-identity suites only
// catch in the configurations they happen to run.
//
// A map range is accepted without annotation in two shapes:
//
//   - Collect-then-sort: the body only appends keys/values to slices,
//     and each collected slice is passed to a sort call later in the
//     same function (the labeled-family pattern in metrics.go).
//
//   - Order-insensitive reduction: every statement is a commutative
//     integer accumulation (x++/x--, x += / -= / |= / &= / ^= on integer
//     types), a builtin min/max fold, a map write, or a delete. Floating-
//     point += is NOT accepted: float addition is not associative, so
//     the sum's low bits depend on iteration order.
//
// Anything else needs a `//simlint:ordered <reason>` comment on the
// range line or the line above — and the reason is mandatory, so every
// suppression documents why order cannot leak into results.

// orderedMarker is the suppression comment prefix.
const orderedMarker = "//simlint:ordered"

// checkMapOrder reports order-sensitive map ranges in p. include filters
// by file base name (nil checks every file).
func checkMapOrder(p *Package, include func(file string) bool, rep *Report) {
	for _, f := range p.Files {
		if include != nil && !include(p.Filename(f.Pos())) {
			continue
		}
		sup := suppressionLines(p.Fset, f)
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := p.Info.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			line := p.Fset.Position(rs.Pos()).Line
			if reason, ok := suppressionFor(sup, line); ok {
				if reason == "" {
					rep.Add(p.Fset, rs.Pos(), "map-range-order",
						"suppression %s needs a justification (why is iteration order irrelevant here?)", orderedMarker)
				}
				return true
			}
			if orderInsensitive(p, rs, enclosingFunc(stack)) {
				return true
			}
			rep.Add(p.Fset, rs.Pos(), "map-range-order",
				"iteration over map %s is randomly ordered; collect-and-sort the keys, reduce into an order-insensitive integer accumulator, or annotate %s <reason>",
				exprString(rs.X), orderedMarker)
			return true
		})
	}
}

// suppressionLines maps each line carrying a simlint:ordered comment to
// its (possibly empty) reason text.
func suppressionLines(fset *token.FileSet, f *ast.File) map[int]string {
	out := make(map[int]string)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, orderedMarker) {
				continue
			}
			reason := strings.TrimSpace(strings.TrimPrefix(c.Text, orderedMarker))
			out[fset.Position(c.Pos()).Line] = reason
		}
	}
	return out
}

// suppressionFor finds a suppression attached to a range statement on
// rangeLine: trailing on the same line, or alone on the line above.
func suppressionFor(sup map[int]string, rangeLine int) (string, bool) {
	if r, ok := sup[rangeLine]; ok {
		return r, true
	}
	if r, ok := sup[rangeLine-1]; ok {
		return r, true
	}
	return "", false
}

// enclosingFunc returns the innermost function declaration or literal on
// the traversal stack (excluding the node itself), or nil.
func enclosingFunc(stack []ast.Node) ast.Node {
	for i := len(stack) - 2; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return stack[i]
		}
	}
	return nil
}

// orderInsensitive reports whether every statement of the range body is
// commutative under reordering (or a collect feeding a later sort).
func orderInsensitive(p *Package, rs *ast.RangeStmt, fn ast.Node) bool {
	var collected []types.Object
	for _, stmt := range rs.Body.List {
		switch s := stmt.(type) {
		case *ast.IncDecStmt:
			// Counters commute.
		case *ast.AssignStmt:
			objs, ok := assignAllowed(p, s)
			if !ok {
				return false
			}
			collected = append(collected, objs...)
		case *ast.ExprStmt:
			if !isBuiltinCall(p, s.X, "delete") {
				return false
			}
		default:
			return false
		}
	}
	for _, obj := range collected {
		if fn == nil || !sortedAfter(p, fn, rs, obj) {
			return false
		}
	}
	return true
}

// assignAllowed classifies one assignment inside a map-range body. It
// returns the objects of slices collected via append (which must be
// sorted after the loop) and whether the statement is order-insensitive
// at all.
func assignAllowed(p *Package, s *ast.AssignStmt) ([]types.Object, bool) {
	switch s.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		// Commutative only over integers: float addition rounds in
		// iteration order, string += concatenates in iteration order.
		for _, lhs := range s.Lhs {
			if !isIntegral(p.Info.TypeOf(lhs)) {
				return nil, false
			}
		}
		return nil, true
	case token.ASSIGN:
		if len(s.Lhs) != len(s.Rhs) {
			return nil, false
		}
		var collected []types.Object
		for i, lhs := range s.Lhs {
			rhs := s.Rhs[i]
			switch {
			case isMapWrite(p, lhs):
				// m[k] = v: each iteration writes a distinct key.
			case isSelfAppend(p, lhs, rhs):
				if id, ok := lhs.(*ast.Ident); ok {
					if obj := p.Info.Uses[id]; obj != nil {
						collected = append(collected, obj)
						continue
					}
					if obj := p.Info.Defs[id]; obj != nil {
						collected = append(collected, obj)
						continue
					}
				}
				return nil, false
			case isSelfMinMax(p, lhs, rhs):
				// x = min(x, v) / x = max(x, v): a commutative fold.
			default:
				return nil, false
			}
		}
		return collected, true
	default:
		return nil, false
	}
}

// isIntegral reports whether t's underlying type is an integer.
func isIntegral(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// isMapWrite reports whether lhs indexes a map.
func isMapWrite(p *Package, lhs ast.Expr) bool {
	ix, ok := lhs.(*ast.IndexExpr)
	if !ok {
		return false
	}
	t := p.Info.TypeOf(ix.X)
	if t == nil {
		return false
	}
	_, isMap := t.Underlying().(*types.Map)
	return isMap
}

// isSelfAppend reports whether rhs is append(lhs, ...) with lhs a plain
// identifier — the collect half of collect-then-sort.
func isSelfAppend(p *Package, lhs, rhs ast.Expr) bool {
	id, ok := lhs.(*ast.Ident)
	if !ok {
		return false
	}
	call, ok := rhs.(*ast.CallExpr)
	if !ok || !isBuiltinCall(p, call, "append") || len(call.Args) == 0 {
		return false
	}
	arg, ok := call.Args[0].(*ast.Ident)
	return ok && sameObject(p, arg, id)
}

// isSelfMinMax reports whether rhs is min(...)/max(...) with lhs among
// the arguments.
func isSelfMinMax(p *Package, lhs, rhs ast.Expr) bool {
	id, ok := lhs.(*ast.Ident)
	if !ok {
		return false
	}
	call, ok := rhs.(*ast.CallExpr)
	if !ok || (!isBuiltinCall(p, call, "min") && !isBuiltinCall(p, call, "max")) {
		return false
	}
	for _, arg := range call.Args {
		if aid, ok := arg.(*ast.Ident); ok && sameObject(p, aid, id) {
			return true
		}
	}
	return false
}

// isBuiltinCall reports whether e is a call to the named builtin.
func isBuiltinCall(p *Package, e ast.Expr, name string) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isBuiltin := p.Info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// sameObject reports whether two identifiers resolve to one object.
func sameObject(p *Package, a, b *ast.Ident) bool {
	ao := p.Info.Uses[a]
	if ao == nil {
		ao = p.Info.Defs[a]
	}
	bo := p.Info.Uses[b]
	if bo == nil {
		bo = p.Info.Defs[b]
	}
	return ao != nil && ao == bo
}

// sortFuncs are the sanctioned ordering calls of collect-then-sort.
var sortFuncs = map[string]map[string]bool{
	"sort": {
		"Slice": true, "SliceStable": true, "Sort": true, "Stable": true,
		"Ints": true, "Strings": true, "Float64s": true,
	},
	"slices": {
		"Sort": true, "SortFunc": true, "SortStableFunc": true,
	},
}

// sortedAfter reports whether obj (a slice collected inside rs) is
// passed to a sort call after the range statement, inside fn.
func sortedAfter(p *Package, fn ast.Node, rs *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(fn, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= rs.End() || found {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		sf, ok := p.Info.Uses[sel.Sel].(*types.Func)
		if !ok || sf.Pkg() == nil {
			return true
		}
		names, ok := sortFuncs[sf.Pkg().Path()]
		if !ok || !names[sf.Name()] {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok && p.Info.Uses[id] == obj {
				found = true
			}
		}
		return true
	})
	return found
}

// exprString renders a short source form of e for messages.
func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return exprString(x.X) + "[...]"
	case *ast.CallExpr:
		return exprString(x.Fun) + "(...)"
	default:
		return "value"
	}
}
