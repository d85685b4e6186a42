//go:build mutate

package lint

import (
	"context"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestMutate prices the simulator's tests by mutation. For each file in
// mutateScope it generates every mutant of five operators:
//
//   - rel:    flip a relational operator (< and <=, > and >=, == and !=);
//   - negate: negate an if condition;
//   - drop:   delete a statement whose result is unused (a call, an
//     assignment to existing variables, an increment);
//   - assign: turn += into =;
//   - return: return zero values at the top of a function.
//
// A mutant that does not type-check (a dropped statement that leaves a
// variable or import unused) is skipped. Each other mutant runs its
// package's tests with the mutated file swapped in through go test
// -overlay, the tree untouched; a survivor then runs make test-checked's
// packages, the root package among them, in the default build and then
// under the hpncheck tag. A mutant counts as killed only when a test
// fails, panics, crashes or hangs. A mutant no test kills must be listed
// in equivalent with the reason no test can see it; an unlisted survivor,
// a listed one that is killed or gone, and a go test that fails without a
// failing test fail the file's subtest.
//
// Run it with make mutate, or one file with
// go test -tags mutate -run 'TestMutate/netsim/replay.go' ./internal/lint.
func TestMutate(t *testing.T) {
	l := testLoader(t)
	ctx, cancel := context.WithTimeout(context.Background(), mutateBudget)
	defer cancel()
	tmp := t.TempDir()
	for _, rel := range mutateScope {
		t.Run(strings.TrimPrefix(rel, "internal/"), func(t *testing.T) {
			mutateFile(t, ctx, l, tmp, rel)
		})
	}
}

// mutateBudget bounds one run over the whole scope: past it, the
// remaining mutants are not run and their files fail.
const mutateBudget = 180 * time.Minute

// mutateWorkers is how many mutants run at once.
const mutateWorkers = 2

// mutateScope lists the files TestMutate mutates, in order, relative to
// the module root: the files whose errors break byte identity or memo
// exactness silently.
var mutateScope = []string{
	"internal/memo/memo.go",
	"internal/netsim/replay.go",
	"internal/netsim/events.go",
	"internal/netsim/observe.go",
	"internal/netsim/failure.go",
	"internal/netsim/netsim.go",
	"internal/netsim/alloc.go",
	"internal/health/fold.go",
	"internal/sim/engine.go",
	"internal/chunk/chunk.go",
}

// checkedPkgs is make test-checked's package list.
var checkedPkgs = []string{
	"./internal/sim/...", "./internal/netsim/...", "./internal/collective/...", "./internal/rdma/...",
	"./internal/workload/...", "./internal/memo/...", "./internal/health/...", ".",
}

// equivalent lists the mutants no test kills, keyed by mutant.key, with
// the reason each cannot change what the simulator computes. A term of
// StateHash64 that another memo safety layer covers is safety code: it
// stays, listed here with the layer and the test that pins that layer.
var equivalent = map[string]string{
	"replay.go (*Sim).StateHash64 drop h.Mix(uint64(s.sport))":                    layer2Sport,
	"replay.go (*Sim).StateHash64 drop h.Mix(uint64(len(s.active)))":              layer2Active,
	"replay.go (*Sim).StateHash64 drop h.Mix(f.Tuple.Word())":                     layer2Active,
	"replay.go (*Sim).StateHash64 drop h.Mix(math.Float64bits(f.Bits))":           layer2Active,
	"replay.go (*Sim).StateHash64 drop h.Mix(math.Float64bits(f.Remaining))":      layer2Active,
	"replay.go (*Sim).StateHash64 drop h.Mix(uint64(f.Port)<<1 | b2u(f.Stalled))": layer2Active,
	"replay.go (*Sim).StateHash64 drop h.Mix(math.Float64bits(o.demand))": "covered by layer 2: only active flows offer demand, and with none active " +
		"(Mark, Fits) the last recompute left every link's demand zero",
	"replay.go (*Sim).StateHash64 drop h.Mix(math.Float64bits(o.cap))": "with no flow active a live link drains at its capacity " +
		"(refreshObserved), so the term is a function of the link term before it",
	"replay.go (*Sim).StateHash64 drop h.Mix(uint64(len(s.obsLive)))": "the per-link terms after it already tell lists of different lengths apart; " +
		"the length only frames them",
	"replay.go b2u negate if b": "inverting the bit is a bijection on the hashed states, so it tells apart exactly the states the bit does",
	"replay.go (*Sim).ExitFrom rel m.nextAt < now": "also refuses a window whose pending event lands exactly at its end; " +
		"a refused window is re-simulated, so the mutant only refuses more and no output can differ",
	"observe.go (*Sim).integrateObserved rel q1 < 0":               "at q1 = 0 the clamp stores the zero q1 already holds",
	"observe.go (*Sim).integrateObserved rel q1 > portBufferBytes": "at q1 = portBufferBytes the clamp stores the bound q1 already holds",
	"netsim.go (*Sim).StartFlow drop f.Stalled, f.pinned, f.comp, f.rt = false, false, noComp, nil": "a recycled flow is a completed, " +
		"unpinned one, so it already holds these values; a fresh flow's zero comp only makes routeFlow's leaveComp mark " +
		"component 0, an exact refill, so only the work changes",
	"netsim.go (*Sim).StartFlow drop panic(fmt.Sprintf(\"netsim: shard %d flow %d routed over link %d owned by domain %d\", " +
		"s.shard, f.ID, l, s.sharding.ShardOfLink(l)))": "an invariant check: it fires only if routing leaves a shard's pod, " +
		"which valley-free routing between two of the pod's hosts never does",
	"netsim.go (*Sim).StartFlow rel s.sport < 49152": "s.sport never holds 49152 after the increment: it starts " +
		"there (New) and wraps to 0",
	"netsim.go (*Sim).newFlow drop s.free[n-1] = nil": "the slot past the free list's end is never read; clearing it only " +
		"lets the GC free a flow its caller pinned and dropped",
	"netsim.go (*Sim).completionEvent drop clear(s.free[flowPoolCap:])": poolTrim,
	"netsim.go (*Sim).completionEvent rel len(s.free) > flowPoolCap":    poolTrim,
	"netsim.go (*Sim).countTiers drop t = f.rt.tiers":                   tiersCache,
	"netsim.go (*Sim).countTiers drop t = 1":                            tiersCache,
	"netsim.go (*Sim).countTiers drop f.rt.tiers = t":                   tiersCache,
	"netsim.go (*Sim).advance rel f.Rate > 0":                           "a zero rate subtracts zero",
	"netsim.go (*Sim).advance rel f.Remaining < 0":                      "at zero the clamp stores the zero Remaining already holds",
	"netsim.go (*Sim).advance drop f.Remaining = 0": "a float guard: scheduleCompletion truncates to the nanosecond, so " +
		"advance stops at or before a flow's exact completion and Remaining goes negative only by a rounding no run " +
		"hits; the clamp keeps such a remainder from reading as no completion (a negative projected time)",
	"netsim.go (*Sim).completionEvent rel f.Rate > 0": "a flow without rate has bits left (it was harvested when it " +
		"reached none), so Remaining/0 is +Inf and it stays either way",
	"netsim.go (*Sim).completionEvent rel f.Remaining <= 0": "at zero Remaining/Rate is 0, inside the window either way",
	"netsim.go (*Sim).completionEvent rel f.Remaining/f.Rate <= window": "differs only for a flow exactly batchWindow " +
		"short of done, which float rates do not produce; either side completes it within batchWindow of its exact time",
	"netsim.go (*Sim).completionEvent rel d > slowest": "at equality the same value is stored",
	"netsim.go (*Sim).completionEvent rel len(done) > 0": "the event is armed at the earliest projected completion " +
		"(truncated to the nanosecond), so every harvest holds that flow",
	"alloc.go entLess rel a.link < b.link": "a link has one heap entry, so two entries never tie on share and link",
	"alloc.go (*Sim).recompute rel len(s.vacancies) > 0": "with no vacancy the block adds zero hand-offs and " +
		"truncates an empty list",
	"alloc.go (*Sim).recompute rel best < 0":                        noTimeLeft,
	"alloc.go (*Sim).recompute rel best < 0 #2":                     noTimeLeft,
	"alloc.go (*Sim).recompute rel t >= 0":                          noTimeLeft,
	"alloc.go (*Sim).recompute rel t < best":                        sameMin,
	"alloc.go (*Sim).recompute rel t < best #2":                     sameMin,
	"alloc.go (*Sim).recompute rel i > 0":                           "the union of a link with itself is a no-op",
	"alloc.go (*Sim).scheduleCompletion rel best < 0":               noTimeLeft,
	"alloc.go (*Sim).fillComponent rel minT < 0":                    noTimeLeft,
	"alloc.go (*Sim).fillComponent rel t < minT":                    sameMin,
	"alloc.go (*Sim).fillComponent rel n > 0":                       "a link with no share enters the heap at +Inf and pops as drained",
	"alloc.go (*Sim).fillComponent rel live > 0":                    staleLive,
	"alloc.go (*Sim).fillComponent drop live--":                     staleLive,
	"alloc.go (*Sim).addComp drop c.nflows = 0":                     staleLive,
	"alloc.go (*Sim).fillComponent drop h.popDiscard()":             "every flow on the popped link froze, so the entry pops as drained next",
	"alloc.go (*Sim).fillComponent rel cur > e.share*(1+1e-9)+1e-9": "at equality the entry is re-keyed to its own share and pops fresh next",
	"alloc.go (*Sim).fillComponent rel rem < 0":                     remGuard,
	"alloc.go (*Sim).fillComponent drop rem = 0":                    remGuard,
	"alloc.go (*Sim).fillComponent rel live > 0 #2":                 defensiveSweep,
	"alloc.go (*Sim).fillComponent rel fi < len(s.frozen)":          defensiveSweep,
	"alloc.go (*Sim).fillComponent drop live-- #2":                  defensiveSweep,
	"alloc.go (*Sim).leaveComp drop f.comp = noComp": "leaveComp marks the old component, so a flow still naming it " +
		"is regathered and given a new one either way",
	"alloc.go (*Sim).vacate drop f.comp = noComp": "a departed flow's comp is read again only if the flow is recycled, " +
		"and StartFlow resets it",
	"alloc.go (*Sim).find drop p[l] = p[p[l]]": "path halving only shortens later finds",
	"alloc.go (*Sim).union negate if ra < rb":  unionRoot,
	"alloc.go (*Sim).union rel ra < rb":        unionRoot,
	"alloc.go (*Sim).addComp drop ci = cand": "taking a fresh slot instead of a dissolved one only grows the " +
		"component table",
	"fold.go (*Monitor).ApplySummary rel cs.n > 0": "a summarized class saw the half's completions live, each " +
		"counted healthy while the class holds fewer than baselineFlows, so n > 0 at every ApplySummary",
	"fold.go (*Monitor).ApplySummary rel c.min >= degradedFraction*top*(1+foldMargin)": "at equality the half is " +
		"re-delivered instead of folded, which lands the same state (the Summarizer contract)",
	"engine.go (eventHeap).Less rel h[i].at < h[j].at":   "the line above returned unless the times differ",
	"engine.go (eventHeap).Less rel h[i].seq < h[j].seq": "sequence numbers are unique, so they never tie",
	"engine.go (*Engine).Schedule rel delay < 0":         "a zero delay stays zero",
	"engine.go (*Engine).ScheduleDaemon rel delay < 0":   "a zero delay stays zero",
	"engine.go (*Engine).schedule drop e.free[n-1] = nil": "the slot past the free list's end is never read; clearing it " +
		"only lets the GC free an event",
	"engine.go (*Engine).Cancel drop ev.index = -1": "cancel is set too, and every reader of a handle checks it before " +
		"the index",
	"engine.go (*Engine).RunUntil rel e.now < deadline": "at equality the same time is stored",
	"engine.go (*Engine).peek drop heap.Pop(&e.events)": "Cancel takes a pending event out of the heap, so no " +
		"canceled event reaches its top; the branch is defensive",
	"events.go (*Sim).refreshKinds drop s.want = 0": "want only gates publish's fast path: deliver reads each subscriber's own mask, " +
		"so a stale bit costs a call, never a delivery (and no mask shrinks during a run)",
}

const (
	noTimeLeft = "a projected time is 0 only for a flow with no bits left, which its completion event harvested " +
		"before any recompute; above 0 the two sides agree"
	sameMin        = "at equality the same value is stored"
	staleLive      = "a count above the component's unfrozen flows only keeps the fill popping drained entries and sweeping frozen flows"
	remGuard       = "a float guard: exact arithmetic keeps a link's remainder at or above zero, and no run rounds below it"
	defensiveSweep = "the defensive sweep is for a state the fill cannot reach (every unfrozen flow keeps a share and " +
		"a heap entry on its links), so live is 0 by then"
	unionRoot  = "any root choice yields the same partition, and components are created in gather order, not by root"
	poolTrim   = "only bounds the free list a drained Sim keeps; no output reads the flows past the cap"
	tiersCache = "Route.tiers only caches the tiers a path visits; without it countTiers walks the path again " +
		"and finds the same tiers"
	layer2Sport = "covered by layer 2: ExitFrom caches no window that moved the sport cursor, so no cached window depends on it " +
		"(TestExitFromRefusesMovedSportCursor)"
	layer2Active = "covered by layer 2: Mark and Fits refuse while a flow is active, so the multiset is empty at every lookup " +
		"that can hit (TestMarkAndFitsRefuseActiveFlows)"
)

// mutant is one mutated copy of a file.
type mutant struct {
	line int
	fn   string // enclosing function
	op   string // rel, negate, drop, assign or return
	orig string // the mutated source text, on one line
	src  []byte
}

// key names a mutant by file, function, operator and mutated text, which
// survive edits elsewhere in the file; a repeat of the same text in one
// function gets a #n suffix.
func (m *mutant) key(rel string) string {
	return fmt.Sprintf("%s %s %s %s", filepath.Base(rel), m.fn, m.op, m.orig)
}

// verdict is how a mutant ended.
type verdict int

const (
	killedPkg   verdict = iota // by its package's tests
	killedSuite                // by the checked packages' tests, either build
	survived
	broken  // type-checked, but go test failed without a failing test
	skipped // past the budget
)

func mutateFile(t *testing.T, ctx context.Context, l *Loader, tmp, rel string) {
	path := filepath.Join(l.Root, rel)
	dir := filepath.Dir(path)
	pkg, err := l.LoadDir(dir, l.importPathFor(dir))
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file *ast.File
	for _, f := range pkg.Files {
		if sameFile(l.Fset.Position(f.Pos()).Filename, path) {
			file = f
		}
	}
	if file == nil {
		t.Fatalf("%s is not in package %s", rel, pkg.ImportPath)
	}
	all := generate(l, pkg, file, src)
	var ms []*mutant
	for _, m := range all {
		if typeChecks(l, pkg, file, m.src) {
			ms = append(ms, m)
		}
	}

	verdicts := make([]verdict, len(ms))
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < mutateWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				verdicts[i] = runMutant(ctx, l.Root, filepath.Join(tmp, fmt.Sprintf("w%d", i)), path, "./"+filepath.ToSlash(filepath.Dir(rel)), ms[i].src)
			}
		}()
	}
	for i := range ms {
		work <- i
	}
	close(work)
	wg.Wait()

	var count [skipped + 1]int
	seen := map[string]bool{}
	for i, m := range ms {
		v := verdicts[i]
		count[v]++
		k := m.key(rel)
		switch v {
		case survived:
			seen[k] = true
			if reason, ok := equivalent[k]; ok {
				t.Logf("equivalent %s:%d %s — %s", rel, m.line, k, reason)
			} else {
				t.Errorf("survivor %s:%d %s", rel, m.line, k)
			}
		case broken:
			t.Errorf("go test failed on %s:%d %s without a failing test (a build or host failure)", rel, m.line, k)
		}
	}
	t.Logf("%s: %d mutants (%d more do not type-check), %d killed by the package's tests, %d by the suite, %d survive, %d fail without a failing test, %d not run",
		rel, len(ms), len(all)-len(ms), count[killedPkg], count[killedSuite], count[survived], count[broken], count[skipped])
	if count[skipped] > 0 {
		t.Errorf("%d mutants not run within the %v budget", count[skipped], mutateBudget)
		return
	}
	prefix := filepath.Base(rel) + " "
	for k := range equivalent {
		if strings.HasPrefix(k, prefix) && !seen[k] {
			t.Errorf("equivalent lists %q, which is killed or no longer generated", k)
		}
	}
}

// failedTest matches go test output in which a test failed, panicked,
// crashed the test binary (a stack overflow is a fatal error) or hung
// past its timeout.
var failedTest = regexp.MustCompile(`(?m)^(--- FAIL|panic: |fatal error: |\*\*\* Test killed)`)

// runMutant runs the tests on one mutant, the package's own first.
func runMutant(ctx context.Context, root, dir, path, pkg string, src []byte) verdict {
	if ctx.Err() != nil {
		return skipped
	}
	defer os.RemoveAll(dir)
	mutated := filepath.Join(dir, filepath.Base(path))
	overlay := filepath.Join(dir, "overlay.json")
	data, _ := json.Marshal(map[string]any{"Replace": map[string]string{path: mutated}})
	if os.MkdirAll(dir, 0o755) != nil || os.WriteFile(mutated, src, 0o644) != nil || os.WriteFile(overlay, data, 0o644) != nil {
		return broken
	}
	stages := [][]string{
		{"-timeout=60s", pkg},
		append([]string{"-timeout=120s"}, checkedPkgs...),
		append([]string{"-timeout=240s", "-tags=hpncheck"}, checkedPkgs...),
	}
	for i, args := range stages {
		cmd := exec.CommandContext(ctx, "go", append([]string{"test", "-count=1", "-vet=off", "-failfast", "-overlay=" + overlay}, args...)...)
		cmd.Dir = root
		out, err := cmd.CombinedOutput()
		switch {
		case ctx.Err() != nil:
			return skipped
		case err == nil:
			continue
		case !failedTest.Match(out):
			return broken // a build or host failure, not a failing test
		case i == 0:
			return killedPkg
		}
		return killedSuite
	}
	return survived
}

// generate returns every mutant of file, in source order.
func generate(l *Loader, pkg *Package, file *ast.File, src []byte) []*mutant {
	var out []*mutant
	off := func(p token.Pos) int { return l.Fset.Position(p).Offset }
	text := func(n ast.Node) string {
		return strings.Join(strings.Fields(string(src[off(n.Pos()):off(n.End())])), " ")
	}
	repeats := map[string]int{}
	add := func(fn, op string, at token.Pos, orig string, from, to int, repl string) {
		m := &mutant{line: l.Fset.Position(at).Line, fn: fn, op: op, orig: orig}
		k := fn + " " + op + " " + orig
		if repeats[k]++; repeats[k] > 1 {
			m.orig += fmt.Sprintf(" #%d", repeats[k])
		}
		m.src = append(append(append([]byte{}, src[:from]...), repl...), src[to:]...)
		out = append(out, m)
	}
	flips := map[token.Token]token.Token{
		token.LSS: token.LEQ, token.LEQ: token.LSS, token.GTR: token.GEQ, token.GEQ: token.GTR,
		token.EQL: token.NEQ, token.NEQ: token.EQL,
	}
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		fn := funcName(fd)
		if ret, ok := zeroReturn(l, pkg, fd); ok {
			at := off(fd.Body.Lbrace) + 1
			add(fn, "return", fd.Body.Lbrace, "return at entry", at, at, ret)
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if to, ok := flips[n.Op]; ok {
					at := off(n.OpPos)
					add(fn, "rel", n.OpPos, text(n), at, at+len(n.Op.String()), to.String())
				}
			case *ast.IfStmt:
				add(fn, "negate", n.If, "if "+text(n.Cond), off(n.Cond.Pos()), off(n.Cond.End()), "!("+text(n.Cond)+")")
			case *ast.AssignStmt:
				if n.Tok == token.ADD_ASSIGN {
					at := off(n.TokPos)
					add(fn, "assign", n.TokPos, text(n), at, at+2, " =")
				}
			}
			var list []ast.Stmt
			switch n := n.(type) {
			case *ast.BlockStmt:
				list = n.List
			case *ast.CaseClause:
				list = n.Body
			case *ast.CommClause:
				list = n.Body
			}
			for _, s := range list {
				if droppable(s) {
					add(fn, "drop", s.Pos(), text(s), off(s.Pos()), off(s.End()), "")
				}
			}
			return true
		})
	}
	return out
}

// droppable reports whether s is a statement whose result is unused: a
// call, an increment, or an assignment to existing, named variables.
func droppable(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ExprStmt, *ast.IncDecStmt:
		return true
	case *ast.AssignStmt:
		if s.Tok == token.DEFINE {
			return false
		}
		for _, lhs := range s.Lhs {
			if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
				return false
			}
		}
		return true
	}
	return false
}

// funcName names a function declaration as (*Recv).Name or Name.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	star := ""
	if s, ok := t.(*ast.StarExpr); ok {
		star, t = "*", s.X
	}
	if ix, ok := t.(*ast.IndexExpr); ok {
		t = ix.X
	}
	if ix, ok := t.(*ast.IndexListExpr); ok {
		t = ix.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return "(" + star + id.Name + ")." + fd.Name.Name
	}
	return fd.Name.Name
}

// zeroReturn returns the statement that makes fd return at entry: a bare
// return when its results are named or it has none, else one returning
// each result's zero value.
func zeroReturn(l *Loader, pkg *Package, fd *ast.FuncDecl) (string, bool) {
	obj, ok := l.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return "", false
	}
	res := obj.Type().(*types.Signature).Results()
	if res.Len() == 0 || res.At(0).Name() != "" {
		return " return;", true
	}
	qual := func(p *types.Package) string {
		if p == pkg.Types {
			return ""
		}
		return p.Name()
	}
	zeros := make([]string, res.Len())
	for i := range zeros {
		zeros[i] = zeroValue(res.At(i).Type(), qual)
	}
	return " return " + strings.Join(zeros, ", ") + ";", true
}

func zeroValue(t types.Type, qual types.Qualifier) string {
	if _, ok := t.(*types.TypeParam); ok {
		return "*new(" + types.TypeString(t, qual) + ")"
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		switch {
		case u.Info()&types.IsBoolean != 0:
			return "false"
		case u.Info()&types.IsString != 0:
			return `""`
		case u.Kind() == types.UnsafePointer:
			return "nil"
		}
		return "0"
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return "nil"
	}
	return "*new(" + types.TypeString(t, qual) + ")"
}

// typeChecks reports whether pkg type-checks with src in place of file,
// errors that go build rejects (an unused variable or import) included.
func typeChecks(l *Loader, pkg *Package, file *ast.File, src []byte) bool {
	name := l.Fset.Position(file.Pos()).Filename
	f, err := parser.ParseFile(l.Fset, name, src, 0)
	if err != nil {
		return false
	}
	files := make([]*ast.File, 0, len(pkg.Files))
	for _, g := range pkg.Files {
		if g == file {
			g = f
		}
		files = append(files, g)
	}
	ok := true
	conf := types.Config{Importer: l, Error: func(error) { ok = false }}
	conf.Check(pkg.ImportPath, l.Fset, files, nil)
	return ok
}
