package lint

import (
	"go/token"
	"strings"
)

// allowDirective is one rule token of one `//hpnlint:allow` comment. A
// directive naming several rules expands to one allowDirective per rule, so
// staleness is tracked per rule token: `//hpnlint:allow floateq,maporder`
// where only floateq still fires reports the maporder token as stale.
type allowDirective struct {
	pos  token.Position // position of the comment's `//`
	rule string
	// used flips when the directive suppresses a diagnostic or stops a
	// taint seed from entering a summary; a directive that never flips is
	// stale and reported by the allowstale rule.
	used bool
}

// allowSet indexes a package's allow directives by file and line.
type allowSet struct {
	byLine     map[string]map[int]map[string]*allowDirective
	directives []*allowDirective
}

// allowed reports whether rule is suppressed at file:line, marking the
// backing directive as load-bearing.
func (a *allowSet) allowed(file string, line int, rule string) bool {
	if a == nil {
		return false
	}
	d := a.byLine[file][line][rule]
	if d == nil {
		return false
	}
	d.used = true
	return true
}

// collectAllows scans every comment in the package for allow directives.
//
// Directive syntax (the one escape hatch from hpnlint findings):
//
//	//hpnlint:allow <rule>[,<rule>...] [-- <justification>]
//
// The directive is written with no space after "//" so gofmt treats it as a
// machine directive and leaves it untouched. It suppresses diagnostics of
// the named rule(s) on the line the comment appears on (trailing-comment
// form) and on the immediately following line (standalone-comment form):
//
//	start := time.Now() //hpnlint:allow wallclock -- CLI timing, not sim state
//
//	//hpnlint:allow floateq -- exact zero guard before math.Log
//	for u == 0 {
//
// Everything after " -- " is a free-form justification; writing one is
// expected — an allow without a why is a review comment waiting to happen.
// An allow also stops interprocedural taint: a wallclock allow on a
// time.Now site keeps the enclosing function's summary clean, so callers
// are not re-flagged for a deliberate exception.
func collectAllows(fset *token.FileSet, pkg *Package) *allowSet {
	allows := &allowSet{byLine: map[string]map[int]map[string]*allowDirective{}}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rules, ok := parseAllowDirective(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Slash)
				lines := allows.byLine[pos.Filename]
				if lines == nil {
					lines = map[int]map[string]*allowDirective{}
					allows.byLine[pos.Filename] = lines
				}
				for _, r := range rules {
					d := &allowDirective{pos: pos, rule: r}
					allows.directives = append(allows.directives, d)
					for _, line := range []int{pos.Line, pos.Line + 1} {
						set := lines[line]
						if set == nil {
							set = map[string]*allowDirective{}
							lines[line] = set
						}
						// Both lines share one directive so either hit
						// marks it used.
						set[r] = d
					}
				}
			}
		}
	}
	return allows
}

// parseAllowDirective extracts the rule list from one comment's text, or
// returns ok=false when the comment is not an allow directive.
func parseAllowDirective(text string) (rules []string, ok bool) {
	const prefix = "//hpnlint:allow"
	if !strings.HasPrefix(text, prefix) {
		return nil, false
	}
	rest := strings.TrimSpace(strings.TrimPrefix(text, prefix))
	// Strip the justification, if any.
	if i := strings.Index(rest, "--"); i >= 0 {
		rest = strings.TrimSpace(rest[:i])
	}
	if rest == "" {
		return nil, false
	}
	// The rule list is the first field; tolerate spaces after commas.
	fields := strings.Fields(rest)
	for _, f := range fields {
		for _, r := range strings.Split(f, ",") {
			if r != "" {
				rules = append(rules, r)
			}
		}
	}
	return rules, len(rules) > 0
}
