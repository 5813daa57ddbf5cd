package main

// Directive scanning: one parser for "floc:<name> <args…>" comment lines
// and one walk over each file's declarations, filling one module-wide
// table of enum marks. The table is built by a syntax-only parse of every
// module package in the load closure, linted or not: the exhaustive rule
// needs the enum marks of dependencies, which export data does not carry.

import (
	"go/ast"
	"go/token"
	"strings"
)

// Directive names, as written after "floc:".
const (
	dirEq            = "eq"            // eq-guard: the function implements a paper equation
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

// hasDirective reports whether any line of the comment groups is the
// directive called name.
func hasDirective(name string, groups ...*ast.CommentGroup) bool {
	for _, d := range directivesIn(groups...) {
		if d.name == name {
			return true
		}
	}
	return false
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

// directives is the module-wide table of floc:enum marks, keyed
// "pkgpath.Type": which named types carry floc:enum, and the constants of
// every candidate type in declaration order (collected unconditionally, so
// a mark and its const block may live in different files).
type directives struct {
	enums       map[string]bool
	enumMembers map[string][]string
}

func newDirectives() *directives {
	return &directives{enums: map[string]bool{}, enumMembers: map[string][]string{}}
}

// collect walks one parsed file's type and const declarations once.
// Purely syntactic.
func (d *directives) collect(pkgPath string, f *ast.File) {
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok {
			continue
		}
		switch gd.Tok {
		case token.TYPE:
			for _, spec := range gd.Specs {
				d.collectType(pkgPath, gd, spec.(*ast.TypeSpec))
			}
		case token.CONST:
			d.collectEnumConsts(pkgPath, gd)
		}
	}
}

// collectType records a type's floc:enum mark.
func (d *directives) collectType(pkgPath string, gd *ast.GenDecl, ts *ast.TypeSpec) {
	groups := []*ast.CommentGroup{ts.Doc, ts.Comment}
	if len(gd.Specs) == 1 {
		groups = append(groups, gd.Doc)
	}
	if hasDirective(dirEnum, groups...) {
		d.enums[pkgPath+"."+ts.Name.Name] = true
	}
}

// lineDirectives maps the source lines of one linted file to the
// directives written on them: the trailing-comment form that waives one
// switch.
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
		case dirNonexhaustive:
			l.checkWaiverDirective(d)
		case dirEq, dirEnum, dirEnumBound:
		default:
			l.report(d.c.Pos(), RuleDirective,
				"unknown directive floc:%s; no rule reads it, so it annotates nothing", d.name)
		}
		line := l.fset.Position(d.c.Pos()).Line
		ld[line] = append(ld[line], d)
	}
	return ld
}
