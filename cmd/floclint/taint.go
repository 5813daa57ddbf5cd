package main

// The taint rule: provenance tracking for attacker-controlled wire input.
//
// Every enforcement decision FLoc makes is driven by fields an attacker
// chooses on the wire — path identifiers, packet kinds, capability slots,
// declared lengths — and Optimal Filtering's core observation is that
// state sized or indexed by attacker-observable fields is itself an
// attack vector. The rule makes "validate before you trust" a statically
// checked contract: a value derived from a //floc:untrusted source must
// pass through a //floc:sanitizes function before it flows into
//
//   - an array/slice index or slice bound,
//   - a make size/capacity argument,
//   - a loop bound (the condition of a for statement),
//   - a map key (unbounded attacker-keyed state growth), or
//   - a parameter annotated //floc:sink <name> <what> (e.g. the
//     dataplane's shard-hash input).
//
// Taint propagates forward in statement order through assignments,
// arithmetic, field selects, conversions, and intra-module call/return
// boundaries, on the statement walk in flow.go and the module-wide
// directive table. Calls to functions outside the directive
// system (stdlib, dynamic) propagate conservatively: if any argument is
// tainted, the results are tainted and pointer-shaped arguments are
// treated as tainted out-parameters (this is how json.Unmarshal spreads
// its input's taint into the decoded record).
//
// Granularity is per-object: assigning a tainted value to a variable (or
// through a pointer) taints the whole variable; reads of any field or
// element of a tainted value are tainted. Storing into a single field or
// element of an already-clean aggregate does not re-taint it — that is
// the validate-then-fill idiom wire.Decode uses (header fields are
// range-checked before the path walk is trusted). A sanitizer call
// clears the taint of its argument roots and receiver and returns clean
// results; the rule does not verify that the sanitizer's error result is
// checked (that contract stays with the sanitizer's own tests, as with
// eq-guard).
//
// The rule is deliberately shallow where the type system already bounds
// the blast radius: ranging over a tainted slice yields tainted values
// but a clean index (the iteration is bounded by the real length), and
// len/cap of a tainted value is tainted (a declared length is exactly
// the field an attacker lies about).

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// checkSinkDirective reports a malformed floc:sink directive: the form is
// "floc:sink <param> <what...>" and a sink without a description (or a
// name) cannot be reported usefully at call sites.
func (l *linter) checkSinkDirective(d directive) {
	if len(d.args) < 2 {
		l.report(d.c.Pos(), RuleTaint,
			"malformed floc:sink directive %q; want \"floc:sink <param> <what>\"",
			strings.TrimSpace(d.c.Text))
	}
}

// taintVal is the abstract taint state of an expression: whether it is
// derived from an untrusted source, and which source (for diagnostics).
type taintVal struct {
	on  bool
	src string
}

var cleanVal = taintVal{}

func taintFrom(src string) taintVal { return taintVal{on: true, src: src} }

// join merges two taint states, keeping the first source seen.
func (a taintVal) join(b taintVal) taintVal {
	if a.on {
		return a
	}
	return b
}

// taintChecker propagates taint through one function body; the statement
// walk is in flow.go, the hooks below are the join, sink, and sanitizer
// semantics.
type taintChecker struct {
	l     *linter
	lines lineDirectives
	env   map[types.Object]taintVal
	// cleaned marks objects a //floc:sanitizes call validated: field
	// selects on a cleaned object no longer consult the //floc:untrusted
	// field table (the h.validate() idiom).
	cleaned map[types.Object]bool
}

// checkTaint runs the taint rule over one function body. The parameters
// (and receiver) the function's own directives declare untrusted start
// tainted; sink parameters stay clean: inside the sink's body the flow is
// the function's sanctioned business.
func (l *linter) checkTaint(fn *ast.FuncDecl, fd *funcDirectives, lines lineDirectives) {
	c := &taintChecker{
		l:       l,
		lines:   lines,
		env:     map[types.Object]taintVal{},
		cleaned: map[types.Object]bool{},
	}
	l.eachParam(func(name *ast.Ident, obj types.Object) {
		if fd.untrusted[name.Name] {
			c.env[obj] = taintFrom("parameter " + name.Name)
		}
	}, fn.Type.Params, fn.Recv)
	c.stmt(fn.Body)
}

// ---- statement hooks ----

// forCond reports a tainted loop bound.
func (c *taintChecker) forCond(cond ast.Expr) {
	if v := c.expr(cond); v.on {
		c.l.report(cond.Pos(), RuleTaint,
			"loop bound derived from untrusted input (%s); validate it through a //floc:sanitizes function first", v.src)
	}
}

// opAssign mixes the operand into the target: x += tainted taints x.
func (c *taintChecker) opAssign(s *ast.AssignStmt) {
	lv := c.expr(s.Lhs[0])
	rv := c.expr(s.Rhs[0])
	if id, ok := unparen(s.Lhs[0]).(*ast.Ident); ok {
		if obj := c.l.objOf(id); obj != nil {
			c.env[obj] = lv.join(rv)
		}
	}
}

// bind records one assignment target's new taint. Whole-value targets
// (identifiers, pointer dereferences) take the source's taint, or become
// a source themselves under a trailing bare //floc:untrusted; stores into
// a field or element of an aggregate do not re-taint the aggregate (the
// validate-then-fill idiom), though their index expressions are still
// checked as sinks by the expr walk.
func (c *taintChecker) bind(lhs ast.Expr, v taintVal, at token.Pos) {
	var obj types.Object
	switch lhs := unparen(lhs).(type) {
	case *ast.Ident:
		if lhs.Name != "_" {
			obj = c.l.objOf(lhs)
		}
	case *ast.StarExpr:
		obj = c.rootObj(lhs.X)
	case *ast.SelectorExpr, *ast.IndexExpr:
		c.expr(lhs) // sink checks on the index path; no re-taint
	}
	if obj == nil {
		return
	}
	if d, ok := c.lines.find(c.l.line(at), dirUntrusted); ok && len(d.args) == 0 {
		v = taintFrom(obj.Name())
	}
	c.env[obj] = v
}

// rangeVals seeds the loop variables from the ranged container: values
// of a tainted container are tainted; slice indices are clean (bounded
// by the container's real length), map keys of a tainted map are
// tainted (the attacker chose them).
func (c *taintChecker) rangeVals(container types.Type, cv taintVal) (key, val taintVal) {
	if container != nil {
		switch container.Underlying().(type) {
		case *types.Map:
			return cv, cv
		case *types.Chan:
			return cv, cleanVal
		case *types.Basic: // integer or string range
			return cleanVal, cleanVal
		}
	}
	return cleanVal, cv
}

// ---- expressions ----

// expr evaluates an expression's taint, reporting sink violations in its
// subexpressions along the way.
func (c *taintChecker) expr(e ast.Expr) taintVal {
	switch e := e.(type) {
	case nil:
		return cleanVal
	case *ast.BasicLit:
		return cleanVal
	case *ast.Ident:
		return c.env[c.l.objOf(e)]
	case *ast.ParenExpr:
		return c.expr(e.X)
	case *ast.UnaryExpr:
		return c.expr(e.X)
	case *ast.StarExpr:
		return c.expr(e.X)
	case *ast.BinaryExpr:
		lv := c.expr(e.X)
		rv := c.expr(e.Y)
		return lv.join(rv)
	case *ast.CallExpr:
		vals := make([]taintVal, 1)
		c.call(e, vals)
		return vals[0]
	case *ast.SelectorExpr:
		return c.selector(e)
	case *ast.IndexExpr:
		return c.index(e)
	case *ast.IndexListExpr:
		for _, idx := range e.Indices {
			c.expr(idx)
		}
		return c.expr(e.X)
	case *ast.SliceExpr:
		for _, bound := range []ast.Expr{e.Low, e.High, e.Max} {
			if bound == nil {
				continue
			}
			if v := c.expr(bound); v.on {
				c.l.report(bound.Pos(), RuleTaint,
					"slice bound derived from untrusted input (%s); validate it through a //floc:sanitizes function first", v.src)
			}
		}
		return c.expr(e.X)
	case *ast.TypeAssertExpr:
		return c.expr(e.X)
	case *ast.CompositeLit:
		v := cleanVal
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			v = v.join(c.expr(el))
		}
		return v
	case *ast.FuncLit:
		// Closures share the enclosing environment: captures carry their
		// taint in, and sink uses inside the literal are checked inline.
		c.stmt(e.Body)
		return cleanVal
	case *ast.KeyValueExpr:
		return c.expr(e.Value)
	default:
		return cleanVal
	}
}

// rootObj unwraps an addressable chain (&x, *x, x.f, x[i], x[:]) to the
// variable at its root, nil when there is none.
func (c *taintChecker) rootObj(e ast.Expr) types.Object {
	for {
		switch t := unparen(e).(type) {
		case *ast.Ident:
			if v, ok := c.l.objOf(t).(*types.Var); ok {
				return v
			}
			return nil
		case *ast.UnaryExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		case *ast.SelectorExpr:
			if _, ok := c.l.info.Selections[t]; !ok {
				return nil // package-qualified
			}
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.SliceExpr:
			e = t.X
		default:
			return nil
		}
	}
}

// selector evaluates x.f: tainted when the base value is tainted or the
// field carries a //floc:untrusted directive.
func (c *taintChecker) selector(e *ast.SelectorExpr) taintVal {
	sel, ok := c.l.info.Selections[e]
	if !ok {
		return cleanVal // package-qualified identifier
	}
	base := c.expr(e.X)
	if sel.Kind() != types.FieldVal {
		return base // method value: receiver taint rides along
	}
	if base.on {
		return base
	}
	if key, ok := fieldKeyOf(sel); ok && c.l.dirs.untrustedFields[key] {
		if obj := c.rootObj(e.X); obj != nil && c.cleaned[obj] {
			return cleanVal // validated by a //floc:sanitizes call
		}
		return taintFrom("field " + e.Sel.Name)
	}
	return cleanVal
}

// index evaluates x[i], reporting tainted indexes and map keys.
func (c *taintChecker) index(e *ast.IndexExpr) taintVal {
	iv := c.expr(e.Index)
	bv := c.expr(e.X)
	if iv.on {
		if t := c.l.info.Types[e.X].Type; t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap {
				c.l.report(e.Index.Pos(), RuleTaint,
					"map key derived from untrusted input (%s): attacker-chosen keys grow filter state without bound; validate through a //floc:sanitizes function first", iv.src)
			} else {
				c.l.report(e.Index.Pos(), RuleTaint,
					"index derived from untrusted input (%s); validate it through a //floc:sanitizes function first", iv.src)
			}
		}
	}
	return bv // element of a tainted container is tainted
}

// ---- calls ----

// call evaluates a call, filling vals with the per-result taint.
func (c *taintChecker) call(e *ast.CallExpr, vals []taintVal) {
	if c.l.conversionTarget(e) != nil { // T(x) preserves x's taint
		if len(e.Args) == 1 {
			vals[0] = c.expr(e.Args[0])
		}
		return
	}
	if name := c.l.builtinName(e); name != "" {
		c.builtin(name, e, vals)
		return
	}

	// Receiver taint (method calls) counts as an argument.
	fn, recv := c.l.callee(e)
	anyTaint := cleanVal
	if recv != nil {
		anyTaint = c.expr(recv)
	}
	argTaint := make([]taintVal, len(e.Args))
	for i, a := range e.Args {
		argTaint[i] = c.expr(a)
		anyTaint = anyTaint.join(argTaint[i])
	}

	fd := c.l.calleeDirectives(fn)
	c.checkSinkArgs(e, fn, fd, argTaint)
	if fd.sanitizes {
		// The sanitizer validated what it was given: clear the argument
		// roots and receiver, return clean results.
		for _, a := range append([]ast.Expr{recv}, e.Args...) {
			if obj := c.rootObj(a); obj != nil {
				c.env[obj] = cleanVal
				c.cleaned[obj] = true
			}
		}
		return
	}
	if len(fd.untrusted) > 0 {
		c.untrustedResults(fn, fd, vals)
		return
	}

	// Unannotated or dynamic callee: conservative pass-through. Tainted
	// input means tainted results, and pointer-shaped arguments are
	// treated as out-parameters the callee may have filled from the
	// tainted input (json.Unmarshal, hex.Decode).
	if !anyTaint.on {
		return
	}
	for i := range vals {
		vals[i] = anyTaint
	}
	for i, a := range e.Args {
		if argTaint[i].on {
			continue // already a source, not an out-parameter
		}
		if !pointerish(c.l.info.Types[a].Type) {
			continue
		}
		if obj := c.rootObj(a); obj != nil {
			c.env[obj] = anyTaint
		}
	}
}

// builtin handles builtin calls: make sizes are sinks, len/cap of a
// tainted value is tainted (a declared length is attacker-controlled),
// append propagates.
func (c *taintChecker) builtin(name string, e *ast.CallExpr, vals []taintVal) {
	switch name {
	case "make":
		for _, a := range e.Args[1:] {
			if v := c.expr(a); v.on {
				c.l.report(a.Pos(), RuleTaint,
					"make size derived from untrusted input (%s): attacker-sized allocation; validate it through a //floc:sanitizes function first", v.src)
			}
		}
	case "len", "cap":
		if len(e.Args) == 1 {
			vals[0] = c.expr(e.Args[0])
		}
	case "append":
		v := cleanVal
		for _, a := range e.Args {
			v = v.join(c.expr(a))
		}
		vals[0] = v
	default:
		for _, a := range e.Args {
			c.expr(a)
		}
	}
}

// checkSinkArgs reports tainted values passed to //floc:sink parameters.
func (c *taintChecker) checkSinkArgs(e *ast.CallExpr, fn *types.Func, fd *funcDirectives, argTaint []taintVal) {
	if len(fd.sinks) == 0 {
		return
	}
	sig := fn.Type().(*types.Signature)
	for i := range e.Args {
		if !argTaint[i].on {
			continue
		}
		name := paramName(sig, i)
		what, isSink := fd.sinks[name]
		if !isSink {
			continue
		}
		c.l.report(e.Args[i].Pos(), RuleTaint,
			"untrusted value (%s) flows into %s parameter %q of %s; validate it through a //floc:sanitizes function first",
			argTaint[i].src, what, name, fn.Name())
	}
}

// paramName returns the name of the parameter argument i binds to, the
// variadic parameter taking every extra argument; "?" when out of range.
func paramName(sig *types.Signature, i int) string {
	params := sig.Params()
	if sig.Variadic() && i >= params.Len()-1 {
		i = params.Len() - 1
	}
	if i < 0 || i >= params.Len() {
		return "?"
	}
	return params.At(i).Name()
}

// untrustedResults taints the call's results the callee's directives
// declare untrusted ("return" for the first, or named-result names).
func (c *taintChecker) untrustedResults(fn *types.Func, fd *funcDirectives, vals []taintVal) {
	res := fn.Type().(*types.Signature).Results()
	for i := 0; i < res.Len() && i < len(vals); i++ {
		name := res.At(i).Name()
		if (name != "" && fd.untrusted[name]) || (i == 0 && fd.untrusted["return"]) {
			vals[i] = taintFrom(fn.Name() + " result")
		}
	}
}

// pointerish reports whether a value of type t aliases storage the
// callee can write through: pointers, slices, and maps.
func pointerish(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map:
		return true
	}
	return false
}
