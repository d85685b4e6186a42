package lint

import (
	"fmt"
	"go/token"
	"go/types"
	"sort"
)

// This file propagates the per-function facts from taint.go over the call
// graph to a fixpoint, producing one Summary per function. Facts are
// booleans with provenance, so the lattice is finite and propagation is
// monotone: the round-robin loop terminates in at most O(call-graph depth)
// sweeps.

// prov is one link of a taint chain: where the fact enters this function
// (a seed site or a call site) and, for call sites, which callee —
// and for parameter facts which of its parameters — continues the chain.
type prov struct {
	pos       token.Pos
	desc      string
	next      *FuncInfo // nil at a seed
	nextParam int       // parameter index in next, for parameter facts
}

// Summary is the interprocedural fact set of one function, each fact
// carrying the provenance of one witness path.
type Summary struct {
	// Wall: the function (transitively) reads the wall clock outside an
	// allow-suppressed site — it derives time outside sim.Engine.
	Wall *prov
	// Rand: the function (transitively) draws from the global math/rand
	// source.
	Rand *prov
	// Ordered: the function has ordered side effects — it schedules
	// simulator events, emits telemetry, feeds a fingerprint hasher, or
	// appends to state that outlives it. Calling it from a map iteration
	// turns Go's randomized order into artifact order.
	Ordered *prov
	// FloatAcc: the function accumulates floating-point state it does not
	// own; calling it from an order-unstable context (map range, goroutine,
	// channel merge) makes the reduction order nondeterministic.
	FloatAcc *prov
	// RMO ("returns map-ordered"): the function returns data whose order
	// derives from map iteration.
	RMO *prov
	// ParamSink: parameter i reaches an ordered artifact sink (telemetry,
	// event scheduling, fingerprint hasher, surviving append).
	ParamSink map[int]*prov
	// ParamEmit: parameter i is used as the receiver of an unguarded
	// tracer emission, so the nil-guard obligation escapes to callers.
	ParamEmit map[int]*prov
}

// shape encodes which facts are present, for fixpoint change detection.
func (s *Summary) shape() string {
	b := make([]byte, 0, 16)
	for _, p := range []*prov{s.Wall, s.Rand, s.Ordered, s.FloatAcc, s.RMO} {
		if p != nil {
			b = append(b, '1')
		} else {
			b = append(b, '0')
		}
	}
	b = append(b, byte('a'+len(s.ParamSink)))
	b = append(b, byte('a'+len(s.ParamEmit)))
	return string(b)
}

// solve runs the summary fixpoint over the whole program, then freezes the
// per-function map-ordered local sets the maporder rule reads.
func (prog *Program) solve() {
	for _, fi := range prog.order {
		fi.sum.ParamSink = map[int]*prov{}
		fi.sum.ParamEmit = map[int]*prov{}
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range prog.order {
			before := fi.sum.shape()
			prog.transfer(fi)
			if fi.sum.shape() != before {
				changed = true
			}
		}
	}
	for _, fi := range prog.order {
		fi.moLocals = prog.mapOrderedLocals(fi)
	}
}

// transfer recomputes one function's summary from its facts and the
// current summaries of its callees.
func (prog *Program) transfer(fi *FuncInfo) {
	fc := &fi.facts
	sum := &fi.sum

	seedOr := func(cur *prov, seeds []seed, rule, via string, calleeFact func(*Summary) *prov) *prov {
		if cur != nil {
			return cur
		}
		if len(seeds) > 0 {
			return &prov{pos: seeds[0].pos, desc: seeds[0].desc}
		}
		for _, c := range fc.calls {
			callee := prog.funcs[c.callee]
			if callee == nil || calleeFact(&callee.sum) == nil {
				continue
			}
			if prog.allowedAt(fi.Pkg, c.pos, rule) {
				continue
			}
			return &prov{pos: c.pos, desc: "calls " + callee.Name() + ", which " + via, next: callee}
		}
		return nil
	}

	sum.Wall = seedOr(sum.Wall, fc.wall, "wallclock", "derives wall-clock time",
		func(s *Summary) *prov { return s.Wall })
	sum.Rand = seedOr(sum.Rand, fc.rand, "globalrand", "draws from the global math/rand source",
		func(s *Summary) *prov { return s.Rand })
	sum.Ordered = seedOr(sum.Ordered, fc.ordered, "maporder", "has ordered side effects",
		func(s *Summary) *prov { return s.Ordered })
	sum.FloatAcc = seedOr(sum.FloatAcc, fc.floatAcc, "floatacc", "accumulates float state order-sensitively",
		func(s *Summary) *prov { return s.FloatAcc })

	// Returns-map-ordered: a returned local is map-ordered, or the return
	// forwards a map-ordered-returning call.
	if sum.RMO == nil {
		mo := prog.mapOrderedLocals(fi)
		for _, r := range fc.retObjs {
			if p, ok := mo[r.obj]; ok {
				sum.RMO = &prov{pos: p.pos, desc: "returns " + r.obj.Name() + ", " + p.desc, next: p.next}
				break
			}
		}
		if sum.RMO == nil {
			for _, rc := range fc.retCalls {
				callee := prog.funcs[rc.callee]
				if callee == nil || callee.sum.RMO == nil {
					continue
				}
				if prog.allowedAt(fi.Pkg, rc.pos, "maporder") {
					continue
				}
				sum.RMO = &prov{pos: rc.pos, desc: "returns " + callee.Name() + "() verbatim, which returns map-iteration-ordered data", next: callee}
				break
			}
		}
	}

	// Parameter facts.
	for idx, seeds := range fc.paramSink {
		if sum.ParamSink[idx] == nil && len(seeds) > 0 {
			sum.ParamSink[idx] = &prov{pos: seeds[0].pos, desc: seeds[0].desc}
		}
	}
	for idx, s := range fc.paramEmit {
		if sum.ParamEmit[idx] == nil {
			sum.ParamEmit[idx] = &prov{pos: s.pos, desc: s.desc}
		}
	}
	for _, pf := range fc.paramFlows {
		callee := prog.funcs[pf.callee]
		if callee == nil {
			continue
		}
		if sum.ParamSink[pf.param] == nil {
			if p := callee.sum.ParamSink[pf.arg]; p != nil && !prog.allowedAt(fi.Pkg, pf.pos, "maporder") {
				sum.ParamSink[pf.param] = &prov{pos: pf.pos,
					desc: fmt.Sprintf("passes parameter %s to %s, whose parameter %s reaches an ordered sink",
						paramName(fi, pf.param), callee.Name(), paramName(callee, pf.arg)),
					next: callee, nextParam: pf.arg}
			}
		}
		if sum.ParamEmit[pf.param] == nil && !pf.guarded {
			if p := callee.sum.ParamEmit[pf.arg]; p != nil && !prog.allowedAt(fi.Pkg, pf.pos, "tracenil") {
				sum.ParamEmit[pf.param] = &prov{pos: pf.pos,
					desc: fmt.Sprintf("passes parameter %s unguarded to %s, which emits on its parameter %s",
						paramName(fi, pf.param), callee.Name(), paramName(callee, pf.arg)),
					next: callee, nextParam: pf.arg}
			}
		}
	}
}

// mapOrderedLocals computes, for one function under the current summaries,
// the local variables holding map-iteration-ordered data: builders from
// taint.go plus locals assigned from returns-map-ordered calls, minus
// anything the function sorts.
func (prog *Program) mapOrderedLocals(fi *FuncInfo) map[types.Object]*prov {
	fc := &fi.facts
	mo := map[types.Object]*prov{}
	for _, b := range fc.builders {
		if !fc.sorted[b.obj] {
			mo[b.obj] = &prov{pos: b.pos, desc: b.desc}
		}
	}
	for _, a := range fc.assignsFromCall {
		if fc.sorted[a.obj] || mo[a.obj] != nil {
			continue
		}
		callee := prog.funcs[a.callee]
		if callee == nil || callee.sum.RMO == nil {
			continue
		}
		if prog.allowedAt(fi.Pkg, a.pos, "maporder") {
			continue
		}
		mo[a.obj] = &prov{pos: a.pos,
			desc: "assigned from " + callee.Name() + "(), which returns map-iteration-ordered data", next: callee}
	}
	return mo
}

// paramName renders a parameter for chain messages.
func paramName(fi *FuncInfo, idx int) string {
	sig, ok := fi.Obj.Type().(*types.Signature)
	if !ok || idx >= sig.Params().Len() {
		return fmt.Sprintf("#%d", idx)
	}
	if name := sig.Params().At(idx).Name(); name != "" {
		return name
	}
	return fmt.Sprintf("#%d", idx)
}

// factKind selects which Summary fact a chain walk follows.
type factKind int

const (
	factWall factKind = iota
	factRand
	factOrdered
	factFloatAcc
	factRMO
	factParamSink
	factParamEmit
)

// chain renders the witness path of a fact into diagnostic ChainFrames,
// starting from the given provenance link. Cycles (recursion) are cut by
// the depth cap.
func (prog *Program) chain(p *prov, kind factKind) []ChainFrame {
	var frames []ChainFrame
	for depth := 0; p != nil && depth < 16; depth++ {
		frames = append(frames, ChainFrame{Pos: prog.Fset.Position(p.pos), Note: p.desc})
		if p.next == nil {
			break
		}
		next := p.next
		idx := p.nextParam
		switch kind {
		case factWall:
			p = next.sum.Wall
		case factRand:
			p = next.sum.Rand
		case factOrdered:
			p = next.sum.Ordered
		case factFloatAcc:
			p = next.sum.FloatAcc
		case factRMO:
			p = next.sum.RMO
		case factParamSink:
			p = next.sum.ParamSink[idx]
		case factParamEmit:
			p = next.sum.ParamEmit[idx]
		default:
			p = nil
		}
	}
	return frames
}

// StaleAllow is one allow directive (one rule token) that suppressed
// nothing during a full analysis.
type StaleAllow struct {
	Pos     token.Position
	Rule    string
	Unknown bool // the rule name does not exist
}

// StaleAllows returns the stale directives of the report packages after
// an analysis has run every rule. It is the input to FixAllows.
func (prog *Program) StaleAllows() []StaleAllow {
	return prog.staleAllows(knownRuleNames())
}

// staleAllows returns, for the report packages, every directive that never
// fired, in deterministic order. Directives naming unknown rules are
// always stale.
func (prog *Program) staleAllows(known map[string]bool) []StaleAllow {
	var out []StaleAllow
	for _, pkg := range prog.Pkgs {
		allows := prog.allows[pkg]
		if allows == nil {
			continue
		}
		for _, d := range allows.directives {
			if d.used && known[d.rule] {
				continue
			}
			out = append(out, StaleAllow{Pos: d.pos, Rule: d.rule, Unknown: !known[d.rule]})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Rule < b.Rule
	})
	return out
}
