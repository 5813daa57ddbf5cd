package main

// Directive scanning: one parser for "floc:<name> <args…>" comment lines
// and one walk over each file's declarations, filling one module-wide
// table. The table is built by a syntax-only parse of every module
// package in the load closure, linted or not: the cross-package rules
// need the directives of dependencies, which export data does not carry.

import (
	"go/ast"
	"go/token"
	"strings"
)

// Directive names, as written after "floc:".
const (
	dirEq            = "eq"            // eq-guard: the function implements a paper equation
	dirHotpath       = "hotpath"       // hotpath: per-packet function, body checked
	dirColdpath      = "coldpath"      // hotpath: sanctioned cold excursion, <reason> mandatory
	dirUntrusted     = "untrusted"     // taint: <name>… in a func doc, bare on a field or local
	dirSanitizes     = "sanitizes"     // taint: the function is a validation boundary
	dirSink          = "sink"          // taint: <param> <what…>
	dirEnum          = "enum"          // exhaustive: the type is a closed enum
	dirEnumBound     = "enumbound"     // exhaustive: the constant is a count sentinel
	dirNonexhaustive = "nonexhaustive" // exhaustive: <reason> waives one switch
)

// directive is one parsed "floc:<name> <args…>" comment line.
type directive struct {
	name string
	args []string
	c    *ast.Comment
}

// parseDirective parses one comment line. The directive must start the
// line ("//floc:eq …" or "// floc:eq …"): prose that merely mentions a
// directive does not annotate. An inline "//" starts a trailing comment
// and ends the arguments.
func parseDirective(c *ast.Comment) (directive, bool) {
	rest, ok := strings.CutPrefix(strings.TrimSpace(strings.TrimLeft(c.Text, "/")), "floc:")
	fields := strings.Fields(rest)
	if !ok || len(fields) == 0 || !strings.HasPrefix(rest, fields[0]) {
		return directive{}, false // no directive, or "floc: name"
	}
	d := directive{name: fields[0], c: c}
	for _, f := range fields[1:] {
		if strings.HasPrefix(f, "//") {
			break
		}
		d.args = append(d.args, f)
	}
	return d, true
}

// directivesIn parses every directive line of the comment groups, in
// order; nil groups are skipped.
func directivesIn(groups ...*ast.CommentGroup) []directive {
	var out []directive
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			if d, ok := parseDirective(c); ok {
				out = append(out, d)
			}
		}
	}
	return out
}

// funcDirectives is everything one function's doc comment declares.
type funcDirectives struct {
	eq         bool              // floc:eq
	hot, cold  bool              // floc:hotpath and floc:coldpath (both: a conflict)
	coldReason bool              // some floc:coldpath line gives its reason
	untrusted  map[string]bool   // parameter, named-result, or "return"
	sanitizes  bool              // floc:sanitizes
	sinks      map[string]string // parameter -> what it feeds
}

// add hands one doc directive to the rule that owns its name.
func (fd *funcDirectives) add(d directive) {
	switch d.name {
	case dirEq:
		fd.eq = true
	case dirHotpath:
		fd.hot = true
	case dirColdpath:
		fd.cold = true
		fd.coldReason = fd.coldReason || len(d.args) > 0
	case dirUntrusted:
		for _, name := range d.args {
			fd.untrusted[name] = true
		}
	case dirSanitizes:
		fd.sanitizes = true
	case dirSink:
		if len(d.args) >= 2 {
			fd.sinks[d.args[0]] = strings.Join(d.args[1:], " ")
		}
	}
}

// directives is the module-wide directive table.
type directives struct {
	// pkgs is the set of non-standard package paths in the load closure;
	// it bounds the hotpath annotation requirement to module code.
	pkgs map[string]bool
	// funcs is keyed "pkgpath.[Recv.]Func".
	funcs map[string]*funcDirectives
	// untrustedFields is keyed "pkgpath.Type.Field".
	untrustedFields map[string]bool
	// enums and enumMembers are keyed "pkgpath.Type": which named types
	// carry floc:enum, and the constants of every candidate type in
	// declaration order (collected unconditionally, so a mark and its
	// const block may live in different files).
	enums       map[string]bool
	enumMembers map[string][]string
}

func newDirectives() *directives {
	return &directives{
		pkgs:            map[string]bool{},
		funcs:           map[string]*funcDirectives{},
		untrustedFields: map[string]bool{},
		enums:           map[string]bool{},
		enumMembers:     map[string][]string{},
	}
}

var noDirectives funcDirectives

// fn returns the directives of the function with the given key; the
// result is never nil.
func (d *directives) fn(key string) *funcDirectives {
	if fd := d.funcs[key]; fd != nil {
		return fd
	}
	return &noDirectives
}

func funcKeyFor(pkgPath, recvName, name string) string {
	if recvName != "" {
		return pkgPath + "." + recvName + "." + name
	}
	return pkgPath + "." + name
}

// declKey is the table key of a function declaration.
func declKey(pkgPath string, fn *ast.FuncDecl) string {
	return funcKeyFor(pkgPath, recvTypeName(fn.Recv), fn.Name.Name)
}

// recvTypeName extracts the receiver's base type name from an AST
// receiver field ("" for generic or unresolvable receivers).
func recvTypeName(recv *ast.FieldList) string {
	if recv == nil || len(recv.List) == 0 {
		return ""
	}
	t := recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return ""
		}
	}
}

// collect walks one parsed file's declarations — function docs, type
// marks, struct fields, const blocks — once. Purely syntactic.
func (d *directives) collect(pkgPath string, f *ast.File) {
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			dirs := directivesIn(decl.Doc)
			if len(dirs) == 0 {
				continue
			}
			fd := &funcDirectives{untrusted: map[string]bool{}, sinks: map[string]string{}}
			for _, dir := range dirs {
				fd.add(dir)
			}
			d.funcs[declKey(pkgPath, decl)] = fd
		case *ast.GenDecl:
			switch decl.Tok {
			case token.TYPE:
				for _, spec := range decl.Specs {
					d.collectType(pkgPath, decl, spec.(*ast.TypeSpec))
				}
			case token.CONST:
				d.collectEnumConsts(pkgPath, decl)
			}
		}
	}
}

// collectType records a type's floc:enum mark and, for structs, the
// per-field floc:untrusted directives (trailing or doc).
func (d *directives) collectType(pkgPath string, gd *ast.GenDecl, ts *ast.TypeSpec) {
	typeKey := pkgPath + "." + ts.Name.Name
	groups := []*ast.CommentGroup{ts.Doc, ts.Comment}
	if len(gd.Specs) == 1 {
		groups = append(groups, gd.Doc)
	}
	for _, dir := range directivesIn(groups...) {
		if dir.name == dirEnum {
			d.enums[typeKey] = true
		}
	}
	st, ok := ts.Type.(*ast.StructType)
	if !ok {
		return
	}
	for _, field := range st.Fields.List {
		for _, dir := range directivesIn(field.Comment, field.Doc) {
			if dir.name != dirUntrusted {
				continue
			}
			for _, name := range field.Names {
				d.untrustedFields[typeKey+"."+name.Name] = true
			}
		}
	}
}

// lineDirectives maps the source lines of one linted file to the
// directives written on them: the trailing-comment forms that annotate a
// local's declaration or waive one switch.
type lineDirectives map[int][]directive

// find returns the first directive called name on the line.
func (ld lineDirectives) find(line int, name string) (directive, bool) {
	for _, d := range ld[line] {
		if d.name == name {
			return d, true
		}
	}
	return directive{}, false
}

// scanLines indexes every directive in the file by line, handing each to
// its rule's malformed-directive check on the way and reporting the names
// no rule reads: a misspelt directive would otherwise exempt silently.
func (l *linter) scanLines(f *ast.File) lineDirectives {
	ld := lineDirectives{}
	for _, d := range directivesIn(f.Comments...) {
		switch d.name {
		case dirSink:
			l.checkSinkDirective(d)
		case dirNonexhaustive:
			l.checkWaiverDirective(d)
		case dirEq, dirHotpath, dirColdpath, dirUntrusted, dirSanitizes, dirEnum, dirEnumBound:
		default:
			l.report(d.c.Pos(), RuleDirective,
				"unknown directive floc:%s; no rule reads it, so it annotates nothing", d.name)
		}
		line := l.fset.Position(d.c.Pos()).Line
		ld[line] = append(ld[line], d)
	}
	return ld
}
