package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// HotPathMarker is the doc-comment annotation declaring a function part
// of a zero-allocation hot path:
//
//	//seq:hotpath
//	func (c *Context) AttrSim(dim int, pos int32) float64 { ... }
//
// The hotpathalloc analyzer checks the annotated function and everything
// it transitively calls inside the module.
const HotPathMarker = "seq:hotpath"

// HotPathAlloc returns the hotpathalloc analyzer: functions annotated
// //seq:hotpath — and every module function they reach through static
// calls — may not allocate. The PR 4 kernels earn their `SearchAllocs ==
// 0` benchmark by construction; this makes the property machine-checked
// at the source level, before a regression ever reaches a benchmark run.
//
// Flagged constructs: make/new, slice and map composite literals, append
// (the backing array may grow), string concatenation and string<->[]byte
// conversions, fmt calls (they format through interfaces), interface
// boxing of non-pointer concrete values at call sites, closures that
// capture local variables, and go statements. Deliberate cold branches
// (grow-once scratch buffers, the rare top-k insertion) take a
// //lint:ignore hotpathalloc with the reason.
//
// Calls through interfaces and function values are not followed — an
// interface callee is checked by annotating its implementations.
func HotPathAlloc() *Analyzer {
	return &Analyzer{
		Name:   "hotpathalloc",
		Doc:    "forbid allocation in //seq:hotpath functions and their module-internal callees",
		RunAll: runHotPathAlloc,
	}
}

func runHotPathAlloc(pkgs []*Package) []Diagnostic {
	graph := BuildCallGraph(pkgs)
	var roots []*FuncNode
	graph.Each(func(n *FuncNode) {
		if isHotPath(n.Decl) {
			roots = append(roots, n)
		}
	})
	sort.Slice(roots, func(i, j int) bool { return roots[i].Name() < roots[j].Name() })

	// BFS from the annotated roots; the first root reaching a function is
	// named in its diagnostics (deterministic: roots are sorted, and an
	// annotated function is always its own root).
	rootOf := make(map[*FuncNode]*FuncNode)
	var queue []*FuncNode
	for _, r := range roots {
		if rootOf[r] == nil {
			rootOf[r] = r
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, callee := range n.Callees {
			if rootOf[callee] == nil {
				rootOf[callee] = rootOf[n]
				queue = append(queue, callee)
			}
		}
	}

	checked := make([]*FuncNode, 0, len(rootOf))
	for n := range rootOf {
		checked = append(checked, n)
	}
	sort.Slice(checked, func(i, j int) bool { return checked[i].Name() < checked[j].Name() })

	var diags []Diagnostic
	for _, n := range checked {
		diags = append(diags, allocSites(n, rootOf[n])...)
	}
	return diags
}

// isHotPath reports whether the declaration carries the //seq:hotpath
// marker in its doc comment.
func isHotPath(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == HotPathMarker || strings.HasPrefix(text, HotPathMarker+" ") {
			return true
		}
	}
	return false
}

// allocSites scans one hot-path function body for allocating constructs.
func allocSites(n *FuncNode, root *FuncNode) []Diagnostic {
	pkg := n.Pkg
	var diags []Diagnostic
	where := ""
	if root != n {
		where = fmt.Sprintf(" (on the hot path of %s)", root.Name())
	}
	report := func(node ast.Node, what string) {
		diags = append(diags, Diagnostic{
			Pos:     position(pkg, node),
			Message: fmt.Sprintf("%s in //seq:hotpath code%s", what, where),
		})
	}
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		switch v := node.(type) {
		case *ast.GoStmt:
			report(v, "go statement allocates a goroutine")
		case *ast.FuncLit:
			if name := capturedVar(pkg, v); name != "" {
				report(v, fmt.Sprintf("closure captures %q by reference and escapes", name))
			}
		case *ast.CompositeLit:
			if t := typeOf(pkg, v); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice:
					report(v, "slice literal allocates")
				case *types.Map:
					report(v, "map literal allocates")
				}
			}
		case *ast.BinaryExpr:
			if v.Op == token.ADD && isString(typeOf(pkg, v.X)) && !isConstExpr(pkg, v) {
				report(v, "string concatenation allocates")
			}
		case *ast.AssignStmt:
			if v.Tok == token.ADD_ASSIGN && len(v.Lhs) == 1 && isString(typeOf(pkg, v.Lhs[0])) {
				report(v, "string concatenation allocates")
			}
		case *ast.CallExpr:
			diags = append(diags, callAllocs(pkg, v, where)...)
		}
		return true
	})
	return diags
}

// callAllocs classifies one call expression's allocation hazards.
func callAllocs(pkg *Package, call *ast.CallExpr, where string) []Diagnostic {
	var diags []Diagnostic
	report := func(node ast.Node, what string) {
		diags = append(diags, Diagnostic{
			Pos:     position(pkg, node),
			Message: fmt.Sprintf("%s in //seq:hotpath code%s", what, where),
		})
	}
	fun := ast.Unparen(call.Fun)

	// Built-ins.
	if id, ok := fun.(*ast.Ident); ok {
		if obj := pkg.Info.Uses[id]; obj != nil {
			if _, builtin := obj.(*types.Builtin); builtin {
				switch id.Name {
				case "make":
					report(call, "make allocates")
				case "new":
					report(call, "new allocates")
				case "append":
					report(call, "append may grow its backing array")
				}
				return diags
			}
		}
	}

	// Conversions: string <-> []byte/[]rune copy their payload.
	if tv, ok := pkg.Info.Types[fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to, from := tv.Type, typeOf(pkg, call.Args[0])
		if isStringByteConv(to, from) {
			report(call, "string conversion allocates")
		}
		return diags
	}

	// fmt formats through interfaces and allocates on every call.
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if obj := pkg.Info.Uses[sel.Sel]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
			report(call, "fmt call allocates")
			return diags
		}
	}

	// Interface boxing: a non-pointer concrete argument passed to an
	// interface parameter heap-allocates the value.
	sig, ok := typeOf(pkg, fun).(*types.Signature)
	if !ok {
		return diags
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos && i == params.Len()-1 {
				pt = params.At(params.Len() - 1).Type() // s... passes the slice itself
			} else {
				pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil || !types.IsInterface(pt.Underlying()) {
			continue
		}
		at := typeOf(pkg, arg)
		if at == nil || types.IsInterface(at.Underlying()) {
			continue
		}
		switch at.Underlying().(type) {
		case *types.Pointer, *types.Signature, *types.Chan:
			continue // pointer-shaped: stored in the interface word directly
		}
		if bt, basic := at.Underlying().(*types.Basic); basic && bt.Kind() == types.UntypedNil {
			continue
		}
		report(arg, fmt.Sprintf("interface boxing of %s value", at))
	}
	return diags
}

// capturedVar returns the name of a local variable the literal captures
// from its enclosing function, or "" when it captures nothing (package-
// level state is not a capture). The first captured name in source order
// is returned for a deterministic message.
func capturedVar(pkg *Package, lit *ast.FuncLit) string {
	found := ""
	ast.Inspect(lit.Body, func(node ast.Node) bool {
		if found != "" {
			return false
		}
		id, ok := node.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := pkg.Info.Uses[id].(*types.Var)
		if !ok || obj.IsField() {
			return true
		}
		if obj.Pkg() == nil || obj.Parent() == obj.Pkg().Scope() {
			return true // package-level variable, not a capture
		}
		if obj.Pos() < lit.Pos() || obj.Pos() > lit.End() {
			found = id.Name
		}
		return true
	})
	return found
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isConstExpr reports whether the expression folds to a constant (the
// compiler interns constant strings; no runtime allocation happens).
func isConstExpr(pkg *Package, e ast.Expr) bool {
	tv, ok := pkg.Info.Types[e]
	return ok && tv.Value != nil
}

// isStringByteConv reports whether a conversion between to and from
// copies string payload ([]byte/[]rune <-> string).
func isStringByteConv(to, from types.Type) bool {
	return isString(to) && isByteOrRuneSlice(from) || isByteOrRuneSlice(to) && isString(from)
}

func isByteOrRuneSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8 || b.Kind() == types.Rune || b.Kind() == types.Int32)
}
