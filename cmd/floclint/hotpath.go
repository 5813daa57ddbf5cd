package main

// The hotpath rule: allocation discipline for per-packet code.
//
// Functions annotated //floc:hotpath are the per-packet path (wire
// decode/encode, router admission, ring push/pop, shard dispatch). Under
// flood they run millions of times per second, so a single heap
// allocation per call turns the defense itself into the bottleneck
// (NetFence makes the same argument for in-network defenses generally).
// Inside a hotpath function the rule bans the allocation-prone constructs
// the compiler will not reliably optimize away:
//
//   - map iteration (hides hashing work and defeats preallocation),
//   - string-keyed map indexing (hashes the whole key per packet; hot
//     state belongs in dense handle-indexed tables),
//   - defer (allocates a defer record in non-open-coded cases and runs
//     cold logic on the hot path),
//   - fmt.* calls and non-constant string concatenation,
//   - interface boxing of non-pointer-shaped values (call arguments,
//     assignments, returns, and conversions),
//   - closures that capture local state and escape,
//   - make/new (every call is a heap allocation unless proven otherwise;
//     hoist to a cold constructor or reuse caller-provided storage), and
//   - append to a fresh, un-preallocated slice declared in the function.
//
// Annotation is propagated by requirement, not inference: every call from
// a hotpath function to a function in this module must name its side of
// the contract — //floc:hotpath (checked the same way) or
// //floc:coldpath <reason> (a sanctioned cold excursion: error
// construction, slow-path creation, the control loop). Calls to
// unannotated module functions are findings. Standard-library calls and
// dynamic calls (interface methods, func values) are outside the
// directive system and only their visible construct use (fmt, boxing at
// the call site) is checked. Arguments to //floc:coldpath callees are
// exempt from the boxing check: boxing on the way out of the hot path is
// the cold callee's business (e.g. invariant failure reporting).
//
// The static claims are cross-checked dynamically by
// testing.AllocsPerRun gates (TestZeroAlloc* in the hot packages).

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// pointerShaped reports whether values of t fit in an interface word
// without allocating: pointers, channels, maps, funcs, unsafe pointers.
// Interfaces are included because interface-to-interface assignment does
// not re-box.
func pointerShaped(t types.Type) bool {
	if t == nil {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.Interface:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer || u.Kind() == types.UntypedNil
	}
	return false
}

// checkHotpath enforces the hotpath bans on one annotated function (rule
// hotpath).
func (l *linter) checkHotpath(fn *ast.FuncDecl, fd *funcDirectives) {
	if fd.hot && fd.cold {
		l.report(fn.Name.Pos(), RuleHotpath,
			"%s carries both //floc:hotpath and //floc:coldpath; pick one side of the contract", fn.Name.Name)
	}
	if !fd.hot {
		// Cold bodies are unchecked, but the excursion must be justified.
		if fd.cold && !fd.coldReason {
			l.report(fn.Name.Pos(), RuleHotpath,
				"//floc:coldpath on %s needs a reason (why is leaving the hot path sanctioned here?)", fn.Name.Name)
		}
		return
	}
	if fn.Body == nil {
		return
	}

	fresh := l.freshSliceVars(fn.Body)
	invoked := immediatelyInvoked(fn.Body)
	var results *types.Tuple
	if obj, ok := l.info.Defs[fn.Name].(*types.Func); ok {
		results = obj.Type().(*types.Signature).Results()
	}

	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			l.report(n.Pos(), RuleHotpath,
				"defer in //floc:hotpath function %s: defer records and deferred work do not belong on the per-packet path", fn.Name.Name)
		case *ast.RangeStmt:
			if t := typeOf(l.info, n.X); t != nil {
				if _, ok := t.Underlying().(*types.Map); ok {
					l.report(n.Pos(), RuleHotpath,
						"map iteration in //floc:hotpath function %s: hashing and randomized order do not belong on the per-packet path", fn.Name.Name)
				}
			}
		case *ast.IndexExpr:
			l.checkHotIndex(fn, n)
		case *ast.BinaryExpr:
			l.checkHotConcat(fn, n)
		case *ast.AssignStmt:
			l.checkHotAssign(fn, n)
		case *ast.ReturnStmt:
			l.checkHotReturn(fn, n, results)
		case *ast.CallExpr:
			l.checkHotCall(fn, n, fresh)
		case *ast.FuncLit:
			if invoked[n] {
				return true // runs inline; its body is walked like the rest
			}
			if caps := l.capturedVars(n); len(caps) > 0 {
				l.report(n.Pos(), RuleHotpath,
					"closure capturing %s escapes from //floc:hotpath function %s: captured variables move to the heap",
					strings.Join(caps, ", "), fn.Name.Name)
				return false
			}
		}
		return true
	}
	ast.Inspect(fn.Body, walk)
}

// checkHotIndex flags string-keyed map lookups: every one hashes the
// whole key string. Steady-state per-packet code must index dense
// tables by integer handle; a string probe is only sanctioned at the
// ingest boundary where the handle is minted (waived with
// //floclint:allow hotpath there).
func (l *linter) checkHotIndex(fn *ast.FuncDecl, ix *ast.IndexExpr) {
	t := typeOf(l.info, ix.X)
	if t == nil {
		return
	}
	m, ok := t.Underlying().(*types.Map)
	if !ok {
		return
	}
	if !isBasic(m.Key(), types.IsString) {
		return
	}
	l.report(ix.Pos(), RuleHotpath,
		"string-keyed map index in //floc:hotpath function %s hashes the key on every packet; intern to a dense handle in a cold constructor",
		fn.Name.Name)
}

// typeOf returns the type of an expression, nil when untyped.
func typeOf(info *types.Info, e ast.Expr) types.Type {
	return info.Types[e].Type
}

// checkHotConcat flags non-constant string concatenation.
func (l *linter) checkHotConcat(fn *ast.FuncDecl, be *ast.BinaryExpr) {
	if be.Op != token.ADD {
		return
	}
	tv := l.info.Types[be]
	if tv.Value != nil || !isBasic(tv.Type, types.IsString) {
		return // compile-time constant result (no runtime concat), or not a string
	}
	l.report(be.OpPos, RuleHotpath,
		"string concatenation in //floc:hotpath function %s allocates; precompute in a cold constructor", fn.Name.Name)
}

// checkHotAssign flags += string concatenation and interface boxing
// through plain assignment.
func (l *linter) checkHotAssign(fn *ast.FuncDecl, as *ast.AssignStmt) {
	if as.Tok == token.ADD_ASSIGN && len(as.Lhs) == 1 && isBasic(typeOf(l.info, as.Lhs[0]), types.IsString) {
		l.report(as.TokPos, RuleHotpath,
			"string concatenation in //floc:hotpath function %s allocates; precompute in a cold constructor", fn.Name.Name)
	}
	if as.Tok != token.ASSIGN || len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		lt := typeOf(l.info, lhs)
		if lt == nil || !types.IsInterface(lt) {
			continue
		}
		l.reportBoxing(fn, as.Rhs[i], "assignment")
	}
}

// checkHotReturn flags boxing a concrete value into an interface result.
func (l *linter) checkHotReturn(fn *ast.FuncDecl, rs *ast.ReturnStmt, results *types.Tuple) {
	if results == nil || len(rs.Results) != results.Len() {
		return // bare return or single multi-value call: nothing boxes here
	}
	for i, e := range rs.Results {
		if types.IsInterface(results.At(i).Type()) {
			l.reportBoxing(fn, e, "return")
		}
	}
}

// reportBoxing flags expr if storing it into an interface slot allocates.
func (l *linter) reportBoxing(fn *ast.FuncDecl, expr ast.Expr, context string) {
	t := typeOf(l.info, unparen(expr))
	if pointerShaped(t) {
		return
	}
	l.report(expr.Pos(), RuleHotpath,
		"%s boxes a non-pointer %s into an interface in //floc:hotpath function %s: boxing allocates",
		context, types.TypeString(t, nil), fn.Name.Name)
}

// checkHotCall is the per-call-site part of the rule: fmt bans, make/new
// bans, un-preallocated append, callee annotation propagation, and
// argument boxing.
func (l *linter) checkHotCall(fn *ast.FuncDecl, call *ast.CallExpr, fresh map[*types.Var]bool) {
	// Conversions: T(x) boxes when T is an interface type.
	if target := l.conversionTarget(call); target != nil {
		if types.IsInterface(target) && len(call.Args) == 1 {
			l.reportBoxing(fn, call.Args[0], "conversion")
		}
		return
	}

	if name := l.builtinName(call); name != "" {
		switch name {
		case "make", "new":
			l.report(call.Pos(), RuleHotpath,
				"%s in //floc:hotpath function %s allocates on every call; hoist to a cold constructor or reuse caller-provided storage",
				name, fn.Name.Name)
		case "append":
			l.checkHotAppend(fn, call, fresh)
		}
		return
	}

	// fmt.* never belongs on the hot path (reflection + boxing + output).
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok && l.pkgNameOf(sel.X) == "fmt" {
		l.report(call.Pos(), RuleHotpath,
			"fmt.%s in //floc:hotpath function %s: formatting allocates and reflects; move it behind a //floc:coldpath helper",
			sel.Sel.Name, fn.Name.Name)
		return
	}

	callee, _ := l.callee(call)
	cold := false
	switch {
	case callee == nil:
		// Dynamic call (func value, method value): outside the directive
		// system; only the visible construct use around it is checked.
	case calleeIsInterfaceMethod(callee):
		// Dynamic dispatch: cannot be annotated; argument boxing below
		// still applies.
	case callee.Pkg() != nil && l.dirs.pkgs[callee.Pkg().Path()]:
		fd := l.calleeDirectives(callee)
		cold = fd.cold && !fd.hot
		if !fd.hot && !fd.cold {
			l.report(call.Pos(), RuleHotpath,
				"call to %s from //floc:hotpath function %s: callee is in this module but carries neither //floc:hotpath nor //floc:coldpath",
				callee.FullName(), fn.Name.Name)
		}
	}
	if cold {
		return // sanctioned cold excursion: boxing on the way out is its business
	}
	l.checkArgBoxing(fn, call, callee)
}

// checkArgBoxing flags concrete non-pointer values passed to interface
// parameters (including variadic ...any style parameters).
func (l *linter) checkArgBoxing(fn *ast.FuncDecl, call *ast.CallExpr, callee *types.Func) {
	var sig *types.Signature
	if callee != nil {
		sig, _ = callee.Type().(*types.Signature)
	} else if t := typeOf(l.info, call.Fun); t != nil {
		sig, _ = t.Underlying().(*types.Signature)
	}
	if sig == nil || call.Ellipsis.IsValid() {
		return // slice passed through as-is: no per-element boxing
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		l.reportBoxing(fn, arg, "argument")
	}
}

// checkHotAppend flags appends whose destination is a fresh slice local
// with no preallocated backing: every growth step allocates.
func (l *linter) checkHotAppend(fn *ast.FuncDecl, call *ast.CallExpr, fresh map[*types.Var]bool) {
	if len(call.Args) == 0 {
		return
	}
	id, ok := unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return
	}
	if v, ok := l.objOf(id).(*types.Var); ok && fresh[v] {
		l.report(call.Pos(), RuleHotpath,
			"append to un-preallocated slice %s in //floc:hotpath function %s grows by reallocation; append into caller-provided or struct-owned storage",
			v.Name(), fn.Name.Name)
	}
}

// freshSliceVars collects locals declared as nil or empty slices: `var x
// []T` and `x := []T{}`. Appending to them inside a hotpath function
// always reallocates.
func (l *linter) freshSliceVars(body *ast.BlockStmt) map[*types.Var]bool {
	fresh := map[*types.Var]bool{}
	mark := func(id *ast.Ident) {
		if v, ok := l.info.Defs[id].(*types.Var); ok {
			if _, isSlice := v.Type().Underlying().(*types.Slice); isSlice {
				fresh[v] = true
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeclStmt:
			gd, ok := n.Decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != 0 {
					continue
				}
				for _, name := range vs.Names {
					mark(name)
				}
			}
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE || len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				if cl, ok := unparen(n.Rhs[i]).(*ast.CompositeLit); ok && len(cl.Elts) == 0 {
					mark(id)
				}
			}
		}
		return true
	})
	return fresh
}

// immediatelyInvoked returns the function literals in call-function
// position: they run inline and never escape.
func immediatelyInvoked(body *ast.BlockStmt) map[*ast.FuncLit]bool {
	out := map[*ast.FuncLit]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if fl, ok := unparen(call.Fun).(*ast.FuncLit); ok {
				out[fl] = true
			}
		}
		return true
	})
	return out
}

// capturedVars lists the local variables a function literal closes over
// (used inside, declared outside, not package-level), sorted by first use.
func (l *linter) capturedVars(fl *ast.FuncLit) []string {
	var out []string
	seen := map[*types.Var]bool{}
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := l.info.Uses[id].(*types.Var)
		if !ok || v.IsField() || seen[v] {
			return true
		}
		if v.Pos() >= fl.Pos() && v.Pos() < fl.End() {
			return true // declared inside the literal
		}
		if scope := v.Parent(); scope == nil || scope.Parent() == types.Universe {
			return true // package-level: no capture
		}
		seen[v] = true
		out = append(out, v.Name())
		return true
	})
	return out
}

// calleeIsInterfaceMethod reports whether fn is declared on an interface.
func calleeIsInterfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type())
}
