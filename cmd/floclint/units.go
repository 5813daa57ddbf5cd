package main

// The units rule: dimensional analysis for the paper's quantities.
//
// FLoc's equations mix packets, packets/s, bits, bits/s, bytes, seconds,
// tokens, and dimensionless ratios, and a unit slip at a package seam
// (tcpmodel works in packets/s, defense and measurement in bits/s)
// silently corrupts the bandwidth-guarantee results. Struct fields,
// function parameters, results, and locals declare their dimension with a
// //floc:unit directive; this pass propagates dimensions through
// assignments, arithmetic, and call boundaries, and reports:
//
//   - additions/subtractions of values with different dimensions,
//   - comparisons across dimensions,
//   - annotated sinks (params, struct fields, results) receiving a value
//     of a known different dimension,
//   - plain float64 identifiers of unknown dimension flowing into an
//     annotated parameter (the comment-only-units hazard), and
//   - malformed directives.
//
// Types of floc/internal/units (Bits, BitsPerSec, PacketsPerSec, Seconds)
// carry their dimension in the type system; conversions to them are the
// blessed re-dimensioning points (still checked when the operand's
// dimension is known). Constants are dimensionless scalars that adapt to
// either operand. packets and tokens share a base dimension: one token
// admits one reference-size packet (paper Section III-D).

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The floc:unit directive declares a dimension:
//
//	//floc:unit <dim>              on a struct field or a local's := line
//	// floc:unit <name> <dim>      in a function doc comment, where <name>
//	//                             is a parameter or named-result name, or
//	//                             "return" for the first result

// dim is an exponent vector over the base dimensions. The zero dim is
// dimensionless ("ratio"). packets and tokens share the packet base.
type dim struct {
	bit, byt, packet, second int8
}

// dimByName is the directive vocabulary.
var dimByName = map[string]dim{
	"bits":      {bit: 1},
	"bytes":     {byt: 1},
	"packets":   {packet: 1},
	"tokens":    {packet: 1},
	"seconds":   {second: 1},
	"ratio":     {},
	"bits/s":    {bit: 1, second: -1},
	"bytes/s":   {byt: 1, second: -1},
	"packets/s": {packet: 1, second: -1},
	"tokens/s":  {packet: 1, second: -1},
}

// canonicalDimNames maps common vectors back to a directive name for
// diagnostics, preferring the packet spelling over the token alias.
var canonicalDimNames = map[dim]string{
	{bit: 1}:                "bits",
	{byt: 1}:                "bytes",
	{packet: 1}:             "packets",
	{second: 1}:             "seconds",
	{}:                      "ratio",
	{bit: 1, second: -1}:    "bits/s",
	{byt: 1, second: -1}:    "bytes/s",
	{packet: 1, second: -1}: "packets/s",
}

func (d dim) mul(o dim) dim {
	return dim{d.bit + o.bit, d.byt + o.byt, d.packet + o.packet, d.second + o.second}
}

func (d dim) div(o dim) dim {
	return dim{d.bit - o.bit, d.byt - o.byt, d.packet - o.packet, d.second - o.second}
}

// String renders the dimension for diagnostics: a directive name when one
// matches, else a num/den exponent form like "packet*s" or "1/packet^2".
func (d dim) String() string {
	if name, ok := canonicalDimNames[d]; ok {
		return name
	}
	bases := []struct {
		name string
		exp  int8
	}{{"bit", d.bit}, {"byte", d.byt}, {"packet", d.packet}, {"s", d.second}}
	var num, den []string
	for _, b := range bases {
		switch {
		case b.exp > 0:
			num = append(num, expStr(b.name, b.exp))
		case b.exp < 0:
			den = append(den, expStr(b.name, -b.exp))
		}
	}
	n := strings.Join(num, "*")
	if n == "" {
		n = "1"
	}
	if len(den) == 0 {
		return n
	}
	return n + "/" + strings.Join(den, "*")
}

func expStr(name string, exp int8) string {
	if exp == 1 {
		return name
	}
	return fmt.Sprintf("%s^%d", name, exp)
}

// unitVal is the abstract value of an expression.
type unitVal struct {
	kind uvKind
	d    dim
}

type uvKind uint8

const (
	// uvUnknown: no dimension information; compatible everywhere except
	// the bare-identifier-into-annotated-parameter check.
	uvUnknown uvKind = iota
	// uvAny: a constant or integer count; a dimensionless scalar that
	// adapts to the other operand.
	uvAny
	// uvDim: a known dimension.
	uvDim
)

var (
	unknownVal = unitVal{kind: uvUnknown}
	anyVal     = unitVal{kind: uvAny}
)

func dimVal(d dim) unitVal { return unitVal{kind: uvDim, d: d} }

// unitsPkgPath is the typed-quantity package whose named types carry
// dimensions in the type system.
const unitsPkgPath = "floc/internal/units"

var unitsTypeDims = map[string]dim{
	"Bits":          {bit: 1},
	"BitsPerSec":    {bit: 1, second: -1},
	"PacketsPerSec": {packet: 1, second: -1},
	"Seconds":       {second: 1},
}

// dimOfType returns the dimension a named internal/units type carries.
func dimOfType(t types.Type) (dim, bool) {
	named, ok := t.(*types.Named)
	if !ok {
		return dim{}, false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != unitsPkgPath {
		return dim{}, false
	}
	d, ok := unitsTypeDims[obj.Name()]
	return d, ok
}

// dirDim reads the field/local form: the dim named by the first argument.
func dirDim(d directive) (dim, bool) {
	if len(d.args) == 0 {
		return dim{}, false
	}
	dm, ok := dimByName[d.args[0]]
	return dm, ok
}

// checkUnitDirective reports a malformed directive: one whose tokens
// parse neither as the field/local form (<dim>) nor as the function-doc
// form (<name> <dim>).
func (l *linter) checkUnitDirective(d directive) {
	_, ok := dirDim(d)
	if !ok && len(d.args) >= 2 {
		_, ok = dimByName[d.args[1]]
	}
	if !ok {
		l.report(d.c.Pos(), RuleUnits,
			"malformed floc:unit directive %q; want \"floc:unit <dim>\" or \"floc:unit <name> <dim>\" with <dim> one of packets, packets/s, bits, bits/s, bytes, bytes/s, seconds, tokens, tokens/s, ratio",
			strings.TrimSpace(d.c.Text))
	}
}

// unitsChecker propagates dimensions through one function body; the
// statement walk is flow's, the hooks below are the dimension algebra.
type unitsChecker struct {
	flow[unitVal]
	lines lineDirectives

	// declared pins a variable's dimension (annotated params, named
	// results, and directive-carrying locals); env tracks inferred dims.
	declared map[types.Object]dim
	env      map[types.Object]unitVal

	// results is a stack of per-result dims of the enclosing function
	// literals/declaration, innermost last.
	results [][]*dim
}

// checkUnits runs the units rule over one function body.
func (l *linter) checkUnits(fn *ast.FuncDecl, fd *funcDirectives, lines lineDirectives) {
	c := &unitsChecker{
		lines:    lines,
		declared: map[types.Object]dim{},
		env:      map[types.Object]unitVal{},
	}
	c.flow = flow[unitVal]{l: l, rule: c}
	c.funcBody(fn.Type, fn.Body, fd.units)
}

// funcBody walks one function (declaration or literal) body with its
// signature's annotated or units-typed parameters and named results
// pinned and its result dims on the stack.
func (c *unitsChecker) funcBody(ft *ast.FuncType, body *ast.BlockStmt, named map[string]dim) {
	c.l.eachParam(func(name *ast.Ident, obj types.Object) {
		if d, ok := named[name.Name]; ok {
			c.declared[obj] = d
		} else if d, ok := dimOfType(obj.Type()); ok {
			c.declared[obj] = d
		}
	}, ft.Params, ft.Results)
	c.results = append(c.results, c.resultDims(ft, named))
	c.stmt(body)
	c.results = c.results[:len(c.results)-1]
}

// resultDims computes the per-result expected dims of a signature:
// directive by result name (or "return" for the first), else the dim the
// result's units type carries.
func (c *unitsChecker) resultDims(ft *ast.FuncType, named map[string]dim) []*dim {
	if ft.Results == nil {
		return nil
	}
	var out []*dim
	for _, field := range ft.Results.List {
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			var rd *dim
			if i < len(field.Names) {
				if d, ok := named[field.Names[i].Name]; ok {
					rd = &d
				}
			}
			if rd == nil && len(out) == 0 {
				if d, ok := named["return"]; ok {
					rd = &d
				}
			}
			if rd == nil {
				if t := c.l.info.Types[field.Type].Type; t != nil {
					if d, ok := dimOfType(t); ok {
						rd = &d
					}
				}
			}
			out = append(out, rd)
		}
	}
	return out
}

// ---- statement hooks ----

func (c *unitsChecker) checkDeclared(pos token.Pos, name string, d dim, v unitVal) {
	if v.kind == uvDim && v.d != d {
		c.l.report(pos, RuleUnits,
			"%s is declared %s but assigned a %s value", name, d, v.d)
	}
}

// opAssign handles op= statements.
func (c *unitsChecker) opAssign(s *ast.AssignStmt) {
	switch s.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN:
		lv := c.expr(s.Lhs[0])
		rv := c.expr(s.Rhs[0])
		if lv.kind == uvDim && rv.kind == uvDim && lv.d != rv.d {
			op := "add"
			if s.Tok == token.SUB_ASSIGN {
				op = "subtract"
			}
			c.l.report(s.TokPos, RuleUnits, "cannot %s %s to %s", op, rv.d, lv.d)
		}
	case token.MUL_ASSIGN, token.QUO_ASSIGN:
		// The target's dimension changes by the operand's; fields keep
		// their declared dim (the idiom is scaling by a ratio), locals are
		// re-inferred.
		lv := c.expr(s.Lhs[0])
		rv := c.expr(s.Rhs[0])
		if id, ok := unparen(s.Lhs[0]).(*ast.Ident); ok {
			if obj := c.l.objOf(id); obj != nil {
				if _, pinned := c.declared[obj]; !pinned {
					c.env[obj] = c.composeMulDiv(s.Tok == token.MUL_ASSIGN, lv, rv)
				}
			}
		}
	default:
		for _, r := range s.Rhs {
			c.expr(r)
		}
	}
}

// bind records or checks one assignment target.
func (c *unitsChecker) bind(lhs ast.Expr, v unitVal, define bool, at token.Pos) {
	switch lhs := unparen(lhs).(type) {
	case *ast.Ident:
		if lhs.Name == "_" {
			return
		}
		obj := c.l.objOf(lhs)
		if obj == nil {
			return
		}
		d, pinned := c.declared[obj]
		if define {
			if ld, ok := c.lines.find(c.l.line(at), dirUnit); ok {
				if lineDim, ok := dirDim(ld); ok {
					d, pinned = lineDim, true
				}
			}
		}
		if !pinned {
			d, pinned = dimOfType(obj.Type())
		}
		if !pinned {
			c.env[obj] = v
			return
		}
		c.declared[obj] = d
		c.checkDeclared(lhs.Pos(), lhs.Name, d, v)
	case *ast.SelectorExpr:
		lv := c.expr(lhs)
		if lv.kind == uvDim && v.kind == uvDim && lv.d != v.d {
			c.l.report(lhs.Sel.Pos(), RuleUnits,
				"field %s holds %s but is assigned a %s value", lhs.Sel.Name, lv.d, v.d)
		}
	case *ast.IndexExpr:
		lv := c.expr(lhs)
		if lv.kind == uvDim && v.kind == uvDim && lv.d != v.d {
			c.l.report(lhs.Pos(), RuleUnits,
				"element holds %s but is assigned a %s value", lv.d, v.d)
		}
	case *ast.StarExpr:
		c.expr(lhs.X)
	}
}

// ret checks return expressions against the enclosing signature.
func (c *unitsChecker) ret(s *ast.ReturnStmt) {
	var want []*dim
	if len(c.results) > 0 {
		want = c.results[len(c.results)-1]
	}
	for i, e := range s.Results {
		v := c.expr(e)
		if len(s.Results) != len(want) || i >= len(want) || want[i] == nil {
			continue
		}
		if v.kind == uvDim && v.d != *want[i] {
			c.l.report(e.Pos(), RuleUnits,
				"return value has dimension %s, want %s", v.d, *want[i])
		}
	}
}

// rangeVals seeds the loop variables from the ranged container: an index
// is a scalar count, an element carries the container's (element) dim.
func (c *unitsChecker) rangeVals(container types.Type, cv unitVal) (key, val unitVal) {
	if container != nil {
		switch container.Underlying().(type) {
		case *types.Map:
			return unknownVal, cv // field dims describe map values, not keys
		case *types.Chan:
			return cv, unknownVal
		case *types.Basic: // string or integer range
			return anyVal, anyVal
		}
	}
	return anyVal, cv
}

func (c *unitsChecker) forCond(cond ast.Expr) { c.expr(cond) }

// ---- expressions ----

// expr evaluates an expression's dimension, reporting violations found in
// its subexpressions along the way.
func (c *unitsChecker) expr(e ast.Expr) unitVal {
	switch e := e.(type) {
	case *ast.BasicLit:
		return anyVal
	case *ast.Ident:
		return c.ident(e)
	case *ast.ParenExpr:
		return c.expr(e.X)
	case *ast.UnaryExpr:
		switch e.Op {
		case token.ADD, token.SUB:
			return c.expr(e.X)
		default:
			c.expr(e.X)
			return unknownVal
		}
	case *ast.BinaryExpr:
		return c.binary(e)
	case *ast.CallExpr:
		vals := make([]unitVal, 1)
		c.call(e, vals)
		return vals[0]
	case *ast.SelectorExpr:
		return c.selector(e)
	case *ast.IndexExpr:
		c.expr(e.Index)
		return c.expr(e.X) // element dim: field dims describe elements
	case *ast.IndexListExpr:
		for _, idx := range e.Indices {
			c.expr(idx)
		}
		return c.expr(e.X)
	case *ast.StarExpr:
		return c.expr(e.X)
	case *ast.SliceExpr:
		for _, sub := range []ast.Expr{e.Low, e.High, e.Max} {
			if sub != nil {
				c.expr(sub)
			}
		}
		return c.expr(e.X)
	case *ast.TypeAssertExpr:
		c.expr(e.X)
		return unknownVal
	case *ast.CompositeLit:
		return c.compositeLit(e)
	case *ast.FuncLit:
		c.funcBody(e.Type, e.Body, nil)
		return unknownVal
	case *ast.KeyValueExpr:
		c.expr(e.Value)
		return unknownVal
	default:
		return unknownVal
	}
}

func (c *unitsChecker) ident(e *ast.Ident) unitVal {
	switch obj := c.l.objOf(e).(type) {
	case *types.Const:
		if d, ok := dimOfType(obj.Type()); ok {
			return dimVal(d)
		}
		return anyVal
	case *types.Var:
		if d, ok := c.declared[obj]; ok {
			return dimVal(d)
		}
		if v, ok := c.env[obj]; ok {
			return v
		}
		if d, ok := dimOfType(obj.Type()); ok {
			return dimVal(d)
		}
	case *types.Nil:
		return anyVal
	}
	return unknownVal
}

func (c *unitsChecker) binary(e *ast.BinaryExpr) unitVal {
	lv := c.expr(e.X)
	rv := c.expr(e.Y)
	switch e.Op {
	case token.ADD, token.SUB:
		if !isBasic(c.l.info.Types[e].Type, types.IsNumeric) {
			return unknownVal // string concatenation
		}
		if lv.kind == uvDim && rv.kind == uvDim && lv.d != rv.d {
			op := "add"
			if e.Op == token.SUB {
				op = "subtract"
			}
			c.l.report(e.OpPos, RuleUnits, "cannot %s %s and %s", op, lv.d, rv.d)
			return unknownVal
		}
		switch {
		case lv.kind == uvDim:
			return lv
		case rv.kind == uvDim:
			return rv
		case lv.kind == uvAny && rv.kind == uvAny:
			return anyVal
		default:
			return unknownVal
		}
	case token.MUL:
		return c.composeMulDiv(true, lv, rv)
	case token.QUO:
		return c.composeMulDiv(false, lv, rv)
	case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
		if lv.kind == uvDim && rv.kind == uvDim && lv.d != rv.d {
			c.l.report(e.OpPos, RuleUnits,
				"comparison between %s and %s values", lv.d, rv.d)
		}
		return unknownVal
	default:
		return unknownVal
	}
}

// composeMulDiv multiplies or divides dimensions. A scalar (constant or
// count) is neutral; an unknown operand poisons the result.
func (c *unitsChecker) composeMulDiv(mul bool, lv, rv unitVal) unitVal {
	switch {
	case lv.kind == uvDim && rv.kind == uvDim:
		if mul {
			return dimVal(lv.d.mul(rv.d))
		}
		return dimVal(lv.d.div(rv.d))
	case lv.kind == uvDim && rv.kind == uvAny:
		return lv
	case lv.kind == uvAny && rv.kind == uvDim:
		if mul {
			return rv
		}
		return dimVal(dim{}.div(rv.d))
	case lv.kind == uvAny && rv.kind == uvAny:
		return anyVal
	default:
		return unknownVal
	}
}

func (c *unitsChecker) selector(e *ast.SelectorExpr) unitVal {
	if s, ok := c.l.info.Selections[e]; ok {
		c.expr(e.X)
		if s.Kind() != types.FieldVal {
			return unknownVal
		}
		if key, ok := fieldKeyOf(s); ok {
			if d, ok := c.l.dirs.unitFields[key]; ok {
				return dimVal(d)
			}
		}
		if d, ok := dimOfType(s.Obj().Type()); ok {
			return dimVal(d)
		}
		return unknownVal
	}
	return c.ident(e.Sel) // package-qualified identifier
}

// fieldDim resolves a struct field's annotation (else the dim its units
// type carries), for composite literals.
func (c *unitsChecker) fieldDim(t types.Type, fld *types.Var) (dim, bool) {
	key, ok := fieldKey(t, fld)
	if !ok {
		return dim{}, false
	}
	if d, ok := c.l.dirs.unitFields[key]; ok {
		return d, true
	}
	return dimOfType(fld.Type())
}

func (c *unitsChecker) compositeLit(e *ast.CompositeLit) unitVal {
	t := c.l.info.Types[e].Type
	st := underlyingStruct(t)
	if st == nil {
		for _, el := range e.Elts {
			c.expr(el)
		}
		return unknownVal
	}
	for i, el := range e.Elts {
		var fld *types.Var
		val := el
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			val = kv.Value
			if key, ok := kv.Key.(*ast.Ident); ok {
				for j := 0; j < st.NumFields(); j++ {
					if st.Field(j).Name() == key.Name {
						fld = st.Field(j)
						break
					}
				}
			}
		} else if i < st.NumFields() {
			fld = st.Field(i)
		}
		v := c.expr(val)
		if fld == nil {
			continue
		}
		if d, ok := c.fieldDim(t, fld); ok && v.kind == uvDim && v.d != d {
			c.l.report(val.Pos(), RuleUnits,
				"field %s holds %s but is assigned a %s value", fld.Name(), d, v.d)
		}
	}
	return unknownVal
}

// ---- calls ----

// call evaluates a call or conversion, checking annotated parameters.
func (c *unitsChecker) call(e *ast.CallExpr, vals []unitVal) {
	if target := c.l.conversionTarget(e); target != nil {
		if len(e.Args) == 1 {
			vals[0] = c.conversion(e, target)
		}
		return
	}
	if name := c.l.builtinName(e); name != "" {
		for _, a := range e.Args {
			c.expr(a)
		}
		if name == "len" || name == "cap" {
			vals[0] = anyVal
		}
		return
	}
	// The callee expression is evaluated for the checks along its
	// receiver chain.
	fn, recv := c.l.callee(e)
	if recv != nil {
		c.expr(recv)
	} else if fn == nil {
		c.expr(e.Fun)
	}
	var sig *types.Signature
	if fn != nil {
		sig = fn.Type().(*types.Signature)
	}
	named := c.l.calleeDirectives(fn).units
	for i, a := range e.Args {
		av := c.expr(a)
		pd := paramDim(sig, named, i)
		if pd == nil {
			continue
		}
		pname := paramName(sig, i)
		if av.kind == uvDim && av.d != *pd {
			c.l.report(a.Pos(), RuleUnits,
				"argument %q of %s wants %s, got %s", pname, fn.Name(), *pd, av.d)
			continue
		}
		if av.kind == uvUnknown && c.isBareFloatIdent(a) {
			c.l.report(a.Pos(), RuleUnits,
				"unannotated value %q flows into parameter %q of %s (%s); add a floc:unit directive or use internal/units types",
				unparen(a).(*ast.Ident).Name, pname, fn.Name(), *pd)
		}
	}
	if sig == nil {
		return
	}
	res := sig.Results()
	for i := 0; i < res.Len() && i < len(vals); i++ {
		if d, ok := named[res.At(i).Name()]; ok && res.At(i).Name() != "" {
			vals[i] = dimVal(d)
			continue
		}
		if d, ok := named["return"]; ok && i == 0 {
			vals[0] = dimVal(d)
			continue
		}
		if d, ok := dimOfType(res.At(i).Type()); ok {
			vals[i] = dimVal(d)
		}
	}
}

// conversion handles T(x): units-type targets are the blessed
// re-dimensioning points (checked when x's dim is known); other numeric
// conversions preserve the operand's dimension, with unannotated integer
// counts becoming dimensionless scalars.
func (c *unitsChecker) conversion(e *ast.CallExpr, target types.Type) unitVal {
	inner := c.expr(e.Args[0])
	if d, ok := dimOfType(target); ok {
		if inner.kind == uvDim && inner.d != d {
			c.l.report(e.Pos(), RuleUnits,
				"conversion to %s from a %s value", target.String(), inner.d)
		}
		return dimVal(d)
	}
	switch inner.kind {
	case uvDim:
		return inner
	case uvAny:
		return anyVal
	}
	if isBasic(c.l.info.Types[e.Args[0]].Type, types.IsInteger) {
		return anyVal // unannotated integer counts are scalars
	}
	return unknownVal
}

// paramDim returns the annotated dim of the parameter argument i binds
// to, or nil.
func paramDim(sig *types.Signature, named map[string]dim, i int) *dim {
	if sig == nil {
		return nil
	}
	if d, ok := named[paramName(sig, i)]; ok {
		return &d
	}
	return nil
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

// isBareFloatIdent reports whether the argument is a plain float64
// identifier — the shape of the comment-only-units hazard the rule exists
// to catch. Composite expressions are checked through their parts;
// integer counts and constants are scalars.
func (c *unitsChecker) isBareFloatIdent(a ast.Expr) bool {
	id, ok := unparen(a).(*ast.Ident)
	if !ok {
		return false
	}
	v, ok := c.l.objOf(id).(*types.Var)
	return ok && isBasic(v.Type(), types.IsFloat)
}
