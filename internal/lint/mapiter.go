package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapIter flags `range` over a map in schedule-affecting packages. Go
// randomizes map iteration order per range statement, so a map-order-
// dependent loop anywhere on a live path perturbs the event schedule
// between same-seed runs — the exact bug class PR 8 shipped (E18's
// audit iterated its acked-write ledger in map order while the fleet
// was live). Two escapes, in order of preference:
//
//  1. Rewrite through internal/sim/detmap (Sorted/Keys):
//     ranging over the returned iterator or key slice is clean because
//     the range operand is no longer a map.
//  2. Prove the loop is an order-insensitive fold. The analyzer
//     accepts bodies built solely from commutative accumulation:
//     x++/x--, x op= expr for commutative op (+ - | & ^ *), boolean
//     or constant latches (done = true), stores into a *different*
//     map, delete(...), append of loop-INDEPENDENT elements is NOT
//     accepted (slice order would leak), and if/blocks over the same —
//     provided no right-hand side or condition reads a variable the
//     body also writes (that would thread state between iterations
//     and make the fold order-sensitive after all).
//
// Anything else needs an inline //chanos:allow mapiter <why> waiver.
var MapIter = &Analyzer{
	Name: "mapiter",
	Doc:  "flag range over a map in schedule-affecting packages (map order is randomized; use internal/sim/detmap)",
	Run:  runMapIter,
}

func runMapIter(p *Pass) {
	for _, f := range p.Files {
		if p.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if !isMapType(p.TypeOf(rs.X)) {
				return true
			}
			if orderInsensitiveFold(p, rs) {
				return true
			}
			p.Reportf(rs.For, "range over map %s: map iteration order is randomized and this loop does not provably fold order-insensitively; iterate detmap.Sorted/detmap.Keys or waive with //chanos:allow mapiter <why>", types.ExprString(rs.X))
			return true
		})
	}
}

// isMapType reports whether t is a map, including a type parameter
// whose type set contains only maps (ranging over a generic map is
// just as order-randomized as ranging over a concrete one).
func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	if tp, ok := t.(*types.TypeParam); ok {
		iface, ok := tp.Constraint().Underlying().(*types.Interface)
		if !ok || iface.NumEmbeddeds() == 0 {
			return false
		}
		allMaps := true
		for i := 0; i < iface.NumEmbeddeds(); i++ {
			switch emb := iface.EmbeddedType(i).(type) {
			case *types.Union:
				for j := 0; j < emb.Len(); j++ {
					if _, ok := emb.Term(j).Type().Underlying().(*types.Map); !ok {
						allMaps = false
					}
				}
			default:
				if _, ok := emb.Underlying().(*types.Map); !ok {
					allMaps = false
				}
			}
		}
		return allMaps
	}
	_, isMap := t.Underlying().(*types.Map)
	return isMap
}

// orderInsensitiveFold reports whether the range body is a provably
// commutative fold (see MapIter's doc for the accepted grammar).
func orderInsensitiveFold(p *Pass, rs *ast.RangeStmt) bool {
	written := map[types.Object]bool{}
	collectWrites(p, rs.Body, written)

	ctx := &foldCtx{written: written, rangedRoot: writeTarget(p, rs.X)}
	var rangeVars []types.Object
	for i, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := p.Info.Defs[id]; obj != nil {
				rangeVars = append(rangeVars, obj)
				if i == 0 {
					ctx.keyObj = obj
				}
			} else if obj := p.Info.Uses[id]; obj != nil {
				// `for k = range m` with k declared outside: k is
				// body-written state escaping the loop in iteration
				// order — treat as written.
				written[obj] = true
			}
		}
	}
	for _, rv := range rangeVars {
		delete(written, rv)
	}
	return foldStmts(p, rs.Body.List, ctx)
}

// foldCtx is the state the fold grammar checks against: the set of
// objects the body writes, the range-key variable (whose values are
// unique across iterations — the licence for out[k] = v stores), and
// the root object of the ranged map (stores back into it are refused).
type foldCtx struct {
	written    map[types.Object]bool
	keyObj     types.Object
	rangedRoot types.Object
}

func foldStmts(p *Pass, stmts []ast.Stmt, ctx *foldCtx) bool {
	for _, s := range stmts {
		if !foldStmt(p, s, ctx) {
			return false
		}
	}
	return true
}

func foldStmt(p *Pass, s ast.Stmt, ctx *foldCtx) bool {
	switch s := s.(type) {
	case *ast.IncDecStmt:
		// x++ / x-- on a plain variable commutes. Through an index or
		// field it still commutes as long as the base is loop-invariant,
		// which readsWritten checks (the indexed element may be keyed
		// by the range key — m2[k]++ builds an order-free histogram).
		return !readsWritten(p, s.X, ctx.written, writeTarget(p, s.X))
	case *ast.AssignStmt:
		return foldAssign(p, s, ctx)
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if isBuiltinCall(p, call, "delete") {
				return true // deleting a set of keys is order-free
			}
		}
		return false
	case *ast.BlockStmt:
		return foldStmts(p, s.List, ctx)
	case *ast.IfStmt:
		if s.Init != nil {
			return false
		}
		if !pureCond(p, s.Cond, ctx.written) {
			return false
		}
		if !foldStmts(p, s.Body.List, ctx) {
			return false
		}
		if s.Else != nil {
			return foldStmt(p, s.Else, ctx)
		}
		return true
	case *ast.BranchStmt:
		// continue skips an iteration — fine. break/goto make side
		// effect counts depend on visit order.
		return s.Tok == token.CONTINUE && s.Label == nil
	case *ast.EmptyStmt:
		return true
	default:
		return false
	}
}

func foldAssign(p *Pass, s *ast.AssignStmt, ctx *foldCtx) bool {
	switch s.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN,
		token.AND_ASSIGN, token.XOR_ASSIGN, token.MUL_ASSIGN:
		// x op= expr commutes iff expr doesn't read other body-written
		// state (and the target expression itself is loop-invariant
		// modulo range-key indexing).
		if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
			return false
		}
		self := writeTarget(p, s.Lhs[0])
		return !readsWritten(p, s.Rhs[0], ctx.written, self) &&
			!readsWritten(p, s.Lhs[0], ctx.written, self)
	case token.ASSIGN:
		if len(s.Lhs) != len(s.Rhs) {
			return false
		}
		for i, lhs := range s.Lhs {
			if !foldStore(p, lhs, s.Rhs[i], ctx) {
				return false
			}
		}
		return true
	default:
		// := defines per-iteration locals; conservatively reject (the
		// local's uses would need flow tracking).
		return false
	}
}

// foldStore vets one plain-assignment target/value pair.
func foldStore(p *Pass, lhs, rhs ast.Expr, ctx *foldCtx) bool {
	switch l := lhs.(type) {
	case *ast.Ident:
		// Only constant latches: done = true, state = 3. Same
		// constant every iteration ⇒ order-free.
		return isConstExpr(p, rhs)
	case *ast.IndexExpr:
		// out[k] = v — building another map is order-free when the
		// target is a map (slice stores at body-computed positions
		// would leak visit order), the store does not feed back into
		// the map being ranged, the value reads no body-written state,
		// and iterations cannot clobber one another: either the index
		// is the range-key variable itself (unique per iteration) or
		// the stored value is a constant (clobbers are idempotent).
		if !isMapType(p.TypeOf(l.X)) {
			return false
		}
		if root := writeTarget(p, l.X); root != nil && root == ctx.rangedRoot {
			return false
		}
		uniqueKey := false
		if id, ok := l.Index.(*ast.Ident); ok && ctx.keyObj != nil && p.Info.Uses[id] == ctx.keyObj {
			uniqueKey = true
		}
		if !uniqueKey && !isConstExpr(p, rhs) {
			return false
		}
		if readsWritten(p, l.Index, ctx.written, nil) || readsWritten(p, rhs, ctx.written, nil) {
			return false
		}
		return true
	default:
		return false
	}
}

// writeTarget returns the root object an assignment target writes
// through, so `sum += v` may read sum itself.
func writeTarget(p *Pass, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			if o := p.Info.Uses[x]; o != nil {
				return o
			}
			return p.Info.Defs[x]
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// collectWrites records every object assigned anywhere in the body
// (through any number of index/selector/star hops).
func collectWrites(p *Pass, body ast.Node, written map[types.Object]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if o := writeTarget(p, lhs); o != nil {
					written[o] = true
				}
			}
		case *ast.IncDecStmt:
			if o := writeTarget(p, n.X); o != nil {
				written[o] = true
			}
		}
		return true
	})
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

// freshAppend reports whether call is append(<fresh>, ...): an append
// whose first argument contains no variable references (nil, a
// []T(nil) conversion, a composite literal) and therefore cannot
// mutate any shared backing array — it always allocates-or-copies
// into a value no other iteration can observe.
func freshAppend(p *Pass, call *ast.CallExpr) bool {
	if !isBuiltinCall(p, call, "append") || len(call.Args) == 0 {
		return false
	}
	hasVar := false
	ast.Inspect(call.Args[0], func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if _, isVar := p.Info.Uses[id].(*types.Var); isVar {
				hasVar = true
			}
		}
		return true
	})
	return !hasVar
}

// isConversion reports whether call is a type conversion like
// []byte(nil) or uint64(n) — pure value operations, not calls.
func isConversion(p *Pass, call *ast.CallExpr) bool {
	tv, ok := p.Info.Types[call.Fun]
	return ok && tv.IsType()
}

// readsWritten reports whether e reads any body-written object other
// than self. Function calls also count as "reads state we can't see"
// and poison the fold — except len/cap, and append onto a provably
// fresh first argument (the deep-copy idiom out[k] = append([]byte(nil), v...)).
func readsWritten(p *Pass, e ast.Expr, written map[types.Object]bool, self types.Object) bool {
	poisoned := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isBuiltinCall(p, n, "len") || isBuiltinCall(p, n, "cap") || freshAppend(p, n) || isConversion(p, n) {
				return true // recurse: their arguments still get the ident check
			}
			poisoned = true
			return false
		case *ast.Ident:
			if o := p.Info.Uses[n]; o != nil && o != self && written[o] {
				poisoned = true
				return false
			}
		}
		return true
	})
	return poisoned
}

// pureCond reports whether an if-condition is safe inside a fold: no
// calls (beyond len/cap) and no reads of body-written state.
func pureCond(p *Pass, cond ast.Expr, written map[types.Object]bool) bool {
	return !readsWritten(p, cond, written, nil)
}

func isConstExpr(p *Pass, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	return ok && tv.Value != nil
}
