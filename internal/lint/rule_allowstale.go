package lint

// allowstaleRule turns suppression debt into findings: every
// `//hpnlint:allow <rule>` directive must still suppress at least one
// diagnostic (or stop at least one taint seed). A directive that no longer
// fires is dead configuration — the hazard it excused was fixed or moved,
// and the stale allow now silently licenses a future regression at that
// line. Directives naming rules that do not exist are always stale.
// No test catches a stale allow: a directive that suppresses nothing
// changes no artifact, so seeding one on a netsim or workload line leaves
// the whole suite green.
//
// The rule cannot run per-package like the others: staleness is only known
// after every other enabled rule has had its chance to mark directives
// used. Check is therefore a no-op and the findings are produced by
// Analyze as a post-phase (see findings below), still gated on the rule
// being in the enabled set.
type allowstaleRule struct{}

func (allowstaleRule) Name() string { return "allowstale" }
func (allowstaleRule) Doc() string {
	return "every //hpnlint:allow directive must still suppress a finding; stale allows are findings"
}

// Check is intentionally empty — see the type comment. Staleness is a
// whole-program post-condition, not a per-package property.
func (allowstaleRule) Check(p *Pass) {}

// findings reports every directive that never fired after all other
// rules ran.
func (allowstaleRule) findings(prog *Program) []Diagnostic {
	known := knownRuleNames()
	var diags []Diagnostic
	for _, pkg := range prog.Pkgs {
		for _, d := range prog.allows[pkg].directives {
			switch {
			case !known[d.rule]:
				diags = append(diags, Diagnostic{Pos: d.pos, Rule: "allowstale",
					Msg: "//hpnlint:allow names unknown rule " + d.rule + "; delete it or fix the rule name"})
			case !d.used:
				diags = append(diags, Diagnostic{Pos: d.pos, Rule: "allowstale",
					Msg: "//hpnlint:allow " + d.rule + " no longer suppresses any finding; delete it or re-justify it"})
			}
		}
	}
	return diags
}
