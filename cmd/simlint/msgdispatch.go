package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// The msg-exhaustive analyzer proves the dist protocol's dispatch
// coverage. Every msg* frame constant must be (a) actually sent — a
// `frame{Type: msgX}` composite literal somewhere in the package — and
// (b) consumed by the dispatch code of the side that receives it: a
// constant sent from the coordinator's file must appear in a case clause
// (or an ==/!= comparison, covering the handshake path) in the worker's
// file, and vice versa. Adding a frame type without teaching the peer's
// read loop about it is therefore a gate failure, not a frame the peer
// silently drops in its switch's default arm.

// dispatchContract configures the analyzer for one protocol package.
type dispatchContract struct {
	// pkg is the import path of the protocol package.
	pkg string
	// enumType names the message-discriminator type (constants of this
	// type whose names start with constPrefix are the protocol surface).
	enumType string
	// constPrefix selects the frame constants (e.g. "msg").
	constPrefix string
	// frameType names the envelope struct; sends are recognized as
	// composite literals of it with a keyed discriminator field.
	frameType string
	// discField is the envelope's discriminator field name (e.g. "Type").
	discField string
	// sides maps file base names to protocol side names. Each side
	// receives what the other sends.
	sides map[string]string
}

// checkMsgDispatch verifies one protocol package and returns the number
// of frame constants checked.
func checkMsgDispatch(pkgs map[string]*Package, c dispatchContract, rep *Report) int {
	p := pkgs[c.pkg]
	if p == nil {
		rep.AddAt(token.Position{}, "msg-exhaustive", "contract names package %q, which was not loaded", c.pkg)
		return 0
	}

	// The protocol surface: constants of the enum type with the prefix.
	consts := make(map[types.Object]bool)
	var ordered []types.Object
	scope := p.Types.Scope()
	for _, name := range scope.Names() { // Names() is sorted: deterministic
		if !strings.HasPrefix(name, c.constPrefix) {
			continue
		}
		obj, ok := scope.Lookup(name).(*types.Const)
		if !ok {
			continue
		}
		named, ok := obj.Type().(*types.Named)
		if !ok || named.Obj().Name() != c.enumType {
			continue
		}
		consts[obj] = true
		ordered = append(ordered, obj)
	}
	if len(ordered) == 0 {
		rep.AddAt(token.Position{}, "msg-exhaustive", "no %s* constants of type %s found in %s — contract drift?", c.constPrefix, c.enumType, c.pkg)
		return 0
	}

	// Scan: sends (frame literals) and handles (case clauses and
	// comparisons), attributed to the file's protocol side.
	sends := make(map[types.Object]map[string]bool)   // const -> sides that send it
	handles := make(map[string]map[types.Object]bool) // side -> consts it dispatches on
	for _, side := range c.sides {
		handles[side] = make(map[types.Object]bool)
	}
	constOf := func(e ast.Expr) types.Object {
		e = ast.Unparen(e)
		var id *ast.Ident
		switch x := e.(type) {
		case *ast.Ident:
			id = x
		case *ast.SelectorExpr:
			id = x.Sel
		default:
			return nil
		}
		if obj := p.Info.Uses[id]; obj != nil && consts[obj] {
			return obj
		}
		return nil
	}
	for _, f := range p.Files {
		side := c.sides[p.Filename(f.Pos())]
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CompositeLit:
				t := p.Info.TypeOf(x)
				if t == nil {
					return true
				}
				named, ok := t.(*types.Named)
				if !ok || named.Obj().Name() != c.frameType || named.Obj().Pkg() != p.Types {
					return true
				}
				for _, elt := range x.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					key, ok := kv.Key.(*ast.Ident)
					if !ok || key.Name != c.discField {
						continue
					}
					if obj := constOf(kv.Value); obj != nil {
						if sends[obj] == nil {
							sends[obj] = make(map[string]bool)
						}
						sends[obj][side] = true
					}
				}
			case *ast.CaseClause:
				if side == "" {
					return true
				}
				for _, e := range x.List {
					if obj := constOf(e); obj != nil {
						handles[side][obj] = true
					}
				}
			case *ast.BinaryExpr:
				if side == "" || (x.Op != token.EQL && x.Op != token.NEQ) {
					return true
				}
				for _, e := range []ast.Expr{x.X, x.Y} {
					if obj := constOf(e); obj != nil {
						handles[side][obj] = true
					}
				}
			}
			return true
		})
	}

	// Verdicts, in declaration-name order.
	sideNames := make([]string, 0, len(handles))
	for s := range handles {
		sideNames = append(sideNames, s)
	}
	sort.Strings(sideNames)
	peerOf := func(side string) string {
		for _, s := range sideNames {
			if s != side {
				return s
			}
		}
		return ""
	}
	for _, obj := range ordered {
		from := sends[obj]
		if len(from) == 0 {
			rep.Add(p.Fset, obj.Pos(), "msg-exhaustive",
				"%s is declared but never sent in a %s literal — dead protocol surface, or a send path the analyzer cannot see", obj.Name(), c.frameType)
			continue
		}
		froms := make([]string, 0, len(from))
		for s := range from {
			froms = append(froms, s)
		}
		sort.Strings(froms)
		for _, side := range froms {
			if side == "" {
				// Sent from a file on neither side: require at least one
				// dispatch anywhere.
				any := false
				for _, s := range sideNames {
					any = any || handles[s][obj]
				}
				if !any {
					rep.Add(p.Fset, obj.Pos(), "msg-exhaustive",
						"%s is sent but appears in no dispatch switch on either side", obj.Name())
				}
				continue
			}
			peer := peerOf(side)
			if peer == "" {
				continue
			}
			if !handles[peer][obj] {
				rep.Add(p.Fset, obj.Pos(), "msg-exhaustive",
					"%s is sent by the %s but has no case in the %s's dispatch switch — the %s silently drops it",
					obj.Name(), side, peer, peer)
			}
		}
	}
	return len(ordered)
}
