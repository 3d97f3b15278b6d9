package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MsgOwnership flags writes to a slice/pointer/map payload after it
// has been sent on a channel: in a message-passing system ownership
// transfers at the send, and a post-send write is a data race with
// the receiver in real hardware terms — and a silent aliasing bug
// even under the simulator's cooperative schedule. This is the static
// half of strict mode's runtime copy checker, and the prerequisite
// for the ROADMAP's zero-copy fast path (which makes the transfer,
// not the copy, the contract).
//
// The analysis is per-function and position-ordered: within one
// function body it tracks
//
//   - sends whose payload is (or syntactically contains, via composite
//     literal fields, address-of, or slice expressions) a local
//     variable of reference type (slice, pointer, map);
//   - full rebinds of such a variable to a fresh value (v = make(...),
//     v = nil, v = other) — which release the tracked object;
//   - subsequent mutations through the variable: element stores
//     v[i] = x, field stores v.f = x (through a pointer), *v = x,
//     v = append(v, ...), copy(v, ...), and ++/-- through any of
//     those paths.
//
// A mutation later in source order than a send of the same variable,
// with no rebind in between, is reported. Loops are handled by source
// position, which is exact for straight-line handler code (the shape
// all shard handlers take) and conservative-to-quiet, never
// conservative-to-noisy, elsewhere. Calls that mutate the payload are
// invisible here — that side stays with the runtime copy checker.
var MsgOwnership = &Analyzer{
	Name: "msgownership",
	Doc:  "flag writes to a slice/pointer payload after it was sent on a channel (ownership transfers at the send)",
	Run:  runMsgOwnership,
}

func runMsgOwnership(p *Pass) {
	for _, f := range p.Files {
		if p.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkOwnership(p, fn.Body)
				}
				return false // nested FuncLits recurse via checkOwnership
			case *ast.FuncLit: // package-level var f = func() { ... }
				checkOwnership(p, fn.Body)
				return false
			}
			return true
		})
	}
}

type ownEvent struct {
	kind int // 0 send, 1 rebind, 2 write
	obj  types.Object
	pos  token.Pos
	expr string
}

const (
	evSend = iota
	evRebind
	evWrite
)

func checkOwnership(p *Pass, body *ast.BlockStmt) {
	var events []ownEvent

	// Collect events in this function body only — nested FuncLit
	// bodies are separate ownership domains (a closure capturing the
	// payload is real aliasing, but pairing across activation records
	// by source position would be wrong more often than right).
	ast.Inspect(body, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			checkOwnership(p, m.Body)
			return false
		case *ast.SendStmt:
			for _, obj := range payloadObjects(p, m.Value) {
				events = append(events, ownEvent{evSend, obj, m.Arrow, shortExpr(m.Value)})
			}
		case *ast.AssignStmt:
			collectAssignEvents(p, m, &events)
		case *ast.ExprStmt:
			// A bare copy(v, src) statement mutates v's backing array.
			collectCopyWrite(p, m.X, &events)
		case *ast.IncDecStmt:
			if obj, through := mutationTarget(p, m.X); obj != nil && through {
				events = append(events, ownEvent{evWrite, obj, m.Pos(), shortExpr(m.X)})
			}
		}
		return true
	})

	// Pair: a write after a send of the same object with no rebind
	// between them.
	for _, w := range events {
		if w.kind != evWrite {
			continue
		}
		for _, s := range events {
			if s.kind != evSend || s.obj != w.obj || s.pos >= w.pos {
				continue
			}
			rebound := false
			for _, r := range events {
				if r.kind == evRebind && r.obj == w.obj && r.pos > s.pos && r.pos < w.pos {
					rebound = true
					break
				}
			}
			if !rebound {
				p.Reportf(w.pos, "write to %s after it was sent on a channel: ownership transferred at the send; copy before sending or stop touching the payload", w.expr)
				break
			}
		}
	}
}

// payloadObjects returns the local reference-typed variables the sent
// value aliases, looking through composite literals, address-of,
// slicing and parens.
func payloadObjects(p *Pass, e ast.Expr) []types.Object {
	var objs []types.Object
	var visit func(e ast.Expr, addressed bool)
	visit = func(e ast.Expr, addressed bool) {
		switch e := e.(type) {
		case *ast.Ident:
			obj, ok := p.Info.Uses[e].(*types.Var)
			if !ok {
				return
			}
			if addressed || isRefType(obj.Type()) {
				objs = append(objs, obj)
			}
		case *ast.ParenExpr:
			visit(e.X, addressed)
		case *ast.UnaryExpr:
			if e.Op == token.AND {
				visit(e.X, true)
			}
		case *ast.SliceExpr:
			visit(e.X, addressed)
		case *ast.CompositeLit:
			for _, el := range e.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					visit(kv.Value, false)
				} else {
					visit(el, false)
				}
			}
		}
	}
	visit(e, false)
	return objs
}

func isRefType(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Slice, *types.Pointer, *types.Map:
		return true
	}
	return false
}

// mutationTarget resolves an assignment target to (root variable,
// throughReference): v[i], v.f (v a pointer), *v — mutations of the
// object v references. A bare `v` target is a rebind, not a mutation.
func mutationTarget(p *Pass, e ast.Expr) (types.Object, bool) {
	through := false
	for {
		switch x := e.(type) {
		case *ast.Ident:
			obj, ok := p.Info.Uses[x].(*types.Var)
			if !ok {
				return nil, false
			}
			return obj, through && isRefType(obj.Type())
		case *ast.IndexExpr:
			e, through = x.X, true
		case *ast.StarExpr:
			e, through = x.X, true
		case *ast.SelectorExpr:
			// v.f mutates the referenced object only if v is a
			// pointer; selecting through a value struct copies.
			if t := p.TypeOf(x.X); t != nil {
				if _, ok := t.Underlying().(*types.Pointer); ok {
					through = true
				}
			}
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil, false
		}
	}
}

func collectAssignEvents(p *Pass, s *ast.AssignStmt, events *[]ownEvent) {
	for i, lhs := range s.Lhs {
		var rhs ast.Expr
		if len(s.Rhs) == len(s.Lhs) {
			rhs = s.Rhs[i]
		}
		if id, ok := lhs.(*ast.Ident); ok && s.Tok == token.ASSIGN {
			obj, isVar := p.Info.Uses[id].(*types.Var)
			if !isVar {
				continue
			}
			// v = append(v, ...) mutates the sent backing array (when
			// capacity allows) — a write, not a rebind. copy(v, ...)
			// handled below. Any other full assignment releases v.
			if rhs != nil && isSelfAppend(p, rhs, obj) {
				*events = append(*events, ownEvent{evWrite, obj, s.Pos(), id.Name + " = append(" + id.Name + ", ...)"})
			} else if isRefType(obj.Type()) {
				*events = append(*events, ownEvent{evRebind, obj, s.Pos(), id.Name})
			}
			continue
		}
		if obj, through := mutationTarget(p, lhs); obj != nil && through {
			*events = append(*events, ownEvent{evWrite, obj, lhs.Pos(), shortExpr(lhs)})
		}
	}
	// copy(dst, src) with a tracked dst is a write; it appears as an
	// ExprStmt, but `n := copy(v, src)` lands here too via Rhs.
	for _, rhs := range s.Rhs {
		collectCopyWrite(p, rhs, events)
	}
}

func isSelfAppend(p *Pass, rhs ast.Expr, obj types.Object) bool {
	call, ok := rhs.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	if !isBuiltinCall(p, call, "append") {
		return false
	}
	base, ok := call.Args[0].(*ast.Ident)
	return ok && p.Info.Uses[base] == obj
}

func collectCopyWrite(p *Pass, e ast.Expr, events *[]ownEvent) {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) < 1 || !isBuiltinCall(p, call, "copy") {
		return
	}
	if dst, ok := call.Args[0].(*ast.Ident); ok {
		if obj, isVar := p.Info.Uses[dst].(*types.Var); isVar && isRefType(obj.Type()) {
			*events = append(*events, ownEvent{evWrite, obj, call.Pos(), "copy(" + dst.Name + ", ...)"})
		}
	}
}

func shortExpr(e ast.Expr) string {
	s := types.ExprString(e)
	if len(s) > 40 {
		s = s[:37] + "..."
	}
	return s
}

// isBuiltinCall reports whether call invokes the predeclared builtin
// of the given name (not a user function shadowing it).
func isBuiltinCall(p *Pass, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isBuiltin := p.Info.Uses[id].(*types.Builtin)
	return isBuiltin
}
