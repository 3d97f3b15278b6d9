package lint

import (
	"go/ast"
	"go/types"
)

// MapIter flags `range` over a map in schedule-affecting packages. Go
// randomizes map iteration order per range statement, so a map-order-
// dependent loop anywhere on a live path perturbs the event schedule
// between same-seed runs — the exact bug class PR 8 shipped (E18's
// audit iterated its acked-write ledger in map order while the fleet
// was live). Calls to maps.All, maps.Keys and maps.Values are flagged
// too: their iterators yield in the same randomized order.
//
// Every such range or call is a finding; no loop is proved order-free.
// Either iterate internal/sim/detmap (Sorted/Keys), or waive the line
// with //chanos:allow mapiter <why>, which writes down where a reader
// can check it why that loop's order cannot matter.
var MapIter = &Analyzer{
	Name: "mapiter",
	Doc:  "flag range over a map and maps.All/Keys/Values in schedule-affecting packages (map order is randomized; use internal/sim/detmap)",
	Run:  runMapIter,
}

const mapIterFix = "iterate detmap.Sorted/detmap.Keys or waive with //chanos:allow mapiter <why>"

func runMapIter(p *Pass) {
	for _, f := range p.Files {
		if p.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				if isMapType(p.TypeOf(n.X)) {
					p.Reportf(n.For, "range over map %s: map order is randomized; %s", types.ExprString(n.X), mapIterFix)
				}
			case *ast.CallExpr:
				if name := mapsIterator(p, n); name != "" {
					p.Reportf(n.Pos(), "maps.%s yields in map order, which is randomized; %s", name, mapIterFix)
				}
			}
			return true
		})
	}
}

// mapsIterator returns the function's name if call invokes maps.All,
// maps.Keys or maps.Values (resolved through the type information, so
// a renamed import or an explicit instantiation still counts), or "".
func mapsIterator(p *Pass, call *ast.CallExpr) string {
	fun := ast.Unparen(call.Fun)
	switch x := fun.(type) {
	case *ast.IndexExpr:
		fun = x.X
	case *ast.IndexListExpr:
		fun = x.X
	}
	id, _ := fun.(*ast.Ident)
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		id = sel.Sel
	}
	fn, ok := p.Info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "maps" {
		return ""
	}
	switch fn.Name() {
	case "All", "Keys", "Values":
		return fn.Name()
	}
	return ""
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
