// Package stepreq verifies the request protocol of the stackless-process
// machinery (DESIGN.md §11) by abstract interpretation of step bodies and
// step helper machines — the part of the protocol the runtime can only
// catch as a panic on a path actually executed:
//
//   - a kernel.StepFn body must store exactly one request via a Req*
//     setter before returning (kernel.runProcStep panics otherwise), on
//     every path;
//   - a step helper machine (`func(p *kernel.Proc, ..., fr *Op) bool`)
//     must have a request pending on every `return false` (yield) path
//     and no request pending on any `return true` (completion) path;
//   - arming a second request before returning overwrites the first —
//     the scheduler applies only the last one, so the first is lost;
//   - the result of a conditional setter (ReqCompute, ReqComputeSys,
//     ReqComputeSysFor, ReqDelay — no-ops when the cost is zero) and of a
//     step helper must not be discarded: the caller cannot otherwise know
//     whether to yield or continue;
//   - a completed helper frame must be Reset (or overwritten with a fresh
//     composite literal) before being stepped again — a completed frame's
//     pc still points at its final state;
//   - an mbuf acquired into a local must not still be held at a yield:
//     locals die across dispatches, so the reference must be transferred
//     (stored into the frame or a queue), freed, or be nil by then.
//
// The analysis is path-sensitive where the step idiom demands it. A body
// of the shape `for { switch pc { case ...: } }` is interpreted as a
// state machine: each arm gets its own abstract entry state, entry to an
// arm refines the tracked pc cell to that arm's case values, and the
// dispatch loop runs to a fixpoint. Between statements the interpreter
// carries a bounded *set* of abstract states rather than one join — so
// `if ok { fr.Reset(); pc = send }` keeps (pc=send, frame reset) and
// (pc=recv, frame done) apart until dispatch routes each to its arm,
// which a plain joined dataflow cannot do. Calls to function literals
// bound to local variables (retry closures and the like) are interpreted
// inline, splitting on their boolean result, so captured pc updates and
// Req* calls inside them are seen. All domains are may-sets over finite
// lattices; a report fires when a violating state is reachable on some
// path the analysis can follow.
//
// Soundness boundary (DESIGN.md §12): calls through function values other
// than single-assignment locals, and the stdlib, are not interpreted;
// bool results stored into variables before being tested are not tracked;
// cross-dispatch frame state is invisible (each dispatch starts with
// unknown frames). The analyzer errs toward silence on what it cannot
// see.
package stepreq

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"lrp/internal/analysis/framework"
)

// Analyzer is the step-request protocol check.
var Analyzer = &framework.Analyzer{
	Name: "stepreq",
	Doc:  "verify StepFn/step-helper request arming: a request on every yield path, none on completion paths, Reset before frame reuse, no mbuf held across a yield",
	Run:  run,
}

const (
	kernelPkg = "lrp/internal/kernel"
	mbufPkg   = "lrp/internal/mbuf"
)

// Conditional setters return false (arming nothing) on a zero-cost
// request; the always setters arm unconditionally. costArg names the
// duration argument, so a provably positive constant cost upgrades a
// conditional setter to an unconditional one.
var condReq = map[string]int{ // name -> cost argument index
	"ReqCompute": 0, "ReqComputeSys": 0, "ReqComputeSysFor": 1,
	"ReqDelay": 0,
}
var alwaysReq = map[string]bool{
	"ReqSleep": true, "ReqSleepTimeout": true, "ReqExit": true,
}

func run(pass *framework.Pass) error {
	// The kernel owns the abstraction: its dispatcher and setters handle
	// requests directly.
	if pass.PkgPath == kernelPkg {
		return nil
	}
	helpers := helperFuncs(pass.Prog)
	for _, f := range pass.Files {
		lits := litLocals(pass.TypesInfo, f)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if fn == nil || !helpers[fn] {
				continue
			}
			an := &analyzer{pass: pass, helpers: helpers, lits: lits, helper: true}
			an.analyze(fd.Body)
		}
		for _, lit := range stepLiterals(pass, f) {
			an := &analyzer{pass: pass, helpers: helpers, lits: lits, helper: false}
			an.analyze(lit.Body)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Whole-program classification (shared across passes via the Program).

var helperCache = map[*framework.Program]map[*types.Func]bool{}

// helperFuncs classifies the program's step helper machines: non-kernel
// functions with at least one *kernel.Proc parameter and exactly one bool
// result that (transitively) arm a request. The transitive closure runs
// over the program call graph, so a machine that delegates all its
// arming to sub-machines still qualifies.
func helperFuncs(prog *framework.Program) map[*types.Func]bool {
	if h, ok := helperCache[prog]; ok {
		return h
	}
	g := prog.CallGraph()
	// Direct armers: any function whose body calls a Req* setter on a
	// Proc.
	arms := map[*types.Func]bool{}
	for _, fi := range g.Funcs() {
		info := fi.Pkg.TypesInfo
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name := sel.Sel.Name
			if _, cond := condReq[name]; (cond || alwaysReq[name]) && isProc(info.TypeOf(sel.X)) {
				arms[fi.Fn] = true
				return false
			}
			return true
		})
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range g.Funcs() {
			if arms[fi.Fn] {
				continue
			}
			for _, e := range g.Callees(fi.Fn) {
				if arms[e.Callee] {
					arms[fi.Fn] = true
					changed = true
					break
				}
			}
		}
	}
	h := map[*types.Func]bool{}
	for _, fi := range g.Funcs() {
		if !arms[fi.Fn] || fi.Pkg.Path == kernelPkg {
			continue
		}
		sig := fi.Fn.Type().(*types.Signature)
		if sig.Results().Len() != 1 || !isBool(sig.Results().At(0).Type()) {
			continue
		}
		for i := 0; i < sig.Params().Len(); i++ {
			if isProc(sig.Params().At(i).Type()) {
				h[fi.Fn] = true
				break
			}
		}
	}
	helperCache[prog] = h
	return h
}

func isBool(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Bool
}

// litLocals maps single-assignment local variables to the function
// literal they hold, for inline interpretation of calls through them
// (the `fail := func(p *kernel.Proc) bool {...}` retry-closure idiom).
// A variable written more than once is dropped: the binding would be
// ambiguous.
func litLocals(info *types.Info, f *ast.File) map[*types.Var]*ast.FuncLit {
	out := map[*types.Var]*ast.FuncLit{}
	writes := map[*types.Var]int{}
	bind := func(name *ast.Ident, val ast.Expr) {
		v, ok := info.ObjectOf(name).(*types.Var)
		if !ok {
			return
		}
		writes[v]++
		if lit, ok := ast.Unparen(val).(*ast.FuncLit); ok {
			out[v] = lit
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				if i < len(n.Rhs) {
					bind(id, n.Rhs[i])
				} else if v, ok := info.ObjectOf(id).(*types.Var); ok {
					writes[v]++
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if i < len(n.Values) {
					bind(name, n.Values[i])
				}
			}
		}
		return true
	})
	for v, n := range writes {
		if n > 1 {
			delete(out, v)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Abstract domain.

// memKey names a tracked storage cell: a variable, or a depth-1 field of
// one (`pc` is {pcVar,""}; `fr.lazy` is {frVar,"lazy"}).
type memKey struct {
	v     *types.Var
	field string
}

// valSet is a may-set of integer constants, with an explicit top.
type valSet struct {
	top  bool
	vals map[int64]bool
}

const valCap = 32

func topVals() valSet { return valSet{top: true} }

func single(v int64) valSet { return valSet{vals: map[int64]bool{v: true}} }

func (s valSet) clone() valSet {
	if s.top {
		return s
	}
	m := make(map[int64]bool, len(s.vals))
	for k := range s.vals {
		m[k] = true
	}
	return valSet{vals: m}
}

func (s valSet) union(o valSet) valSet {
	if s.top || o.top {
		return topVals()
	}
	out := s.clone()
	for k := range o.vals {
		out.vals[k] = true
	}
	if len(out.vals) > valCap {
		return topVals()
	}
	return out
}

func (s valSet) equal(o valSet) bool {
	if s.top != o.top {
		return false
	}
	if s.top {
		return true
	}
	if len(s.vals) != len(o.vals) {
		return false
	}
	for k := range s.vals {
		if !o.vals[k] {
			return false
		}
	}
	return true
}

// Frame lifecycle bits (may-set; 0 = unknown, which never triggers).
const (
	fReset   = 1 << iota // freshly zeroed: Reset() or composite-literal store
	fRunning             // stepped and yielded: mid-operation
	fDone                // stepped to completion: results live, pc is final
)

// Armed-request bits (may-set).
const (
	aNone  = 1 << iota // no request pending is possible
	aArmed             // a pending request is possible
)

// state is one abstract state.
type state struct {
	dead   bool
	armed  uint8
	ints   map[memKey]valSet // absent = top
	frames map[memKey]uint8  // absent = unknown
	mbufs  map[*types.Var]token.Pos
}

func deadState() state { return state{dead: true} }

func entryState() state {
	return state{
		armed:  aNone,
		ints:   map[memKey]valSet{},
		frames: map[memKey]uint8{},
		mbufs:  map[*types.Var]token.Pos{},
	}
}

func (s state) clone() state {
	if s.dead {
		return s
	}
	out := state{
		armed:  s.armed,
		ints:   make(map[memKey]valSet, len(s.ints)),
		frames: make(map[memKey]uint8, len(s.frames)),
		mbufs:  make(map[*types.Var]token.Pos, len(s.mbufs)),
	}
	for k, v := range s.ints {
		out.ints[k] = v.clone()
	}
	for k, v := range s.frames {
		out.frames[k] = v
	}
	for k, v := range s.mbufs {
		out.mbufs[k] = v
	}
	return out
}

// join unions o into s, reporting whether s changed. The lattice is
// finite in every dimension, so repeated joins terminate.
func (s *state) join(o state) bool {
	if o.dead {
		return false
	}
	if s.dead {
		*s = o.clone()
		return true
	}
	changed := false
	if s.armed|o.armed != s.armed {
		s.armed |= o.armed
		changed = true
	}
	// ints: absent means top, so a key survives only if present in both.
	for k, v := range s.ints {
		ov, ok := o.ints[k]
		if !ok {
			delete(s.ints, k) // other side is top
			changed = true
			continue
		}
		u := v.union(ov)
		if !u.equal(v) {
			s.ints[k] = u
			changed = true
		}
	}
	for k, v := range o.frames {
		if s.frames[k]|v != s.frames[k] {
			s.frames[k] |= v
			changed = true
		}
	}
	for k, pos := range o.mbufs {
		if _, ok := s.mbufs[k]; !ok {
			s.mbufs[k] = pos
			changed = true
		}
	}
	return changed
}

func (s state) lookupInt(k memKey) valSet {
	if v, ok := s.ints[k]; ok {
		return v
	}
	return topVals()
}

// states is a bounded disjunction of abstract states (empty = dead).
// Keeping branch outcomes apart until machine dispatch preserves the
// pc <-> frame/armed correlations the protocol checks depend on.
type states []state

const stateCap = 48

// pack drops dead members and collapses to a single join when the
// disjunction grows past the cap.
func pack(sts states) states {
	out := sts[:0]
	for _, s := range sts {
		if !s.dead {
			out = append(out, s)
		}
	}
	if len(out) > stateCap {
		joined := deadState()
		for _, s := range out {
			joined.join(s)
		}
		return states{joined}
	}
	return out
}

func joinAll(sts states) state {
	out := deadState()
	for _, s := range sts {
		out.join(s)
	}
	return out
}

// ---------------------------------------------------------------------------
// The interpreter.

type analyzer struct {
	pass    *framework.Pass
	helpers map[*types.Func]bool
	lits    map[*types.Var]*ast.FuncLit
	helper  bool // target kind: helper machine vs StepFn body

	locals   map[*types.Var]bool // mbuf locals declared in the body
	reported map[token.Pos]map[string]bool

	// inlineRet, when non-nil, redirects return statements of an inlined
	// function literal into per-edge accumulators instead of applying
	// the protocol checks.
	inlineRet   *inlineAcc
	inlineDepth int
	inlining    map[*ast.FuncLit]bool
}

type inlineAcc struct {
	t, f states // bool-result literals: states on the true/false edges
	out  states // void literals: states at return
}

// ctx carries the branch targets of the enclosing statements: states
// flowing to break and continue accumulate there.
type ctx struct {
	brk  *states
	cont *states
}

func (an *analyzer) analyze(body *ast.BlockStmt) {
	an.reported = map[token.Pos]map[string]bool{}
	an.locals = mbufLocals(an.pass.TypesInfo, body)
	an.inlining = map[*ast.FuncLit]bool{}
	out := an.execList(body.List, states{entryState()}, ctx{})
	if !an.helper {
		// Falling off the end of a StepFn body is a return.
		for _, st := range out {
			an.checkStepReturn(body.Rbrace, st)
		}
	}
}

// reportf deduplicates by position and message: fixpoint iteration may
// evaluate one site under many states, and the domains are may-sets, so
// once a report fires it stays valid.
func (an *analyzer) reportf(pos token.Pos, format string, args ...any) {
	if an.inlineRet != nil {
		// Reports inside an inlined literal would be attributed to
		// caller-specific states; the literal is also analyzed in its own
		// right when it is in step position.
		return
	}
	msgs := an.reported[pos]
	if msgs == nil {
		msgs = map[string]bool{}
		an.reported[pos] = msgs
	}
	if msgs[format] {
		return
	}
	msgs[format] = true
	an.pass.Reportf(pos, format, args...)
}

// mbufLocals collects *mbuf.Mbuf variables declared inside the analyzed
// body (not parameters — those are caller-owned — and not inside nested
// function literals, whose captures persist across dispatches by
// design).
func mbufLocals(info *types.Info, body *ast.BlockStmt) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if v, ok := info.Defs[id].(*types.Var); ok && isMbufPtr(v.Type()) {
			out[v] = true
		}
		return true
	})
	return out
}

func isMbufPtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Mbuf" && obj.Pkg() != nil && obj.Pkg().Path() == mbufPkg
}

// memKeyOf resolves an expression to a tracked cell: `x`, `&x`, `x.f`,
// `&x.f`, `*x` all map onto {x, [f]}.
func (an *analyzer) memKeyOf(e ast.Expr) (memKey, bool) {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return an.memKeyOf(x.X)
		}
	case *ast.StarExpr:
		return an.memKeyOf(x.X)
	case *ast.Ident:
		if v, ok := an.pass.TypesInfo.ObjectOf(x).(*types.Var); ok {
			return memKey{v: v}, true
		}
	case *ast.SelectorExpr:
		base, ok := ast.Unparen(x.X).(*ast.Ident)
		if !ok {
			return memKey{}, false
		}
		if v, ok := an.pass.TypesInfo.ObjectOf(base).(*types.Var); ok {
			return memKey{v: v, field: x.Sel.Name}, true
		}
	}
	return memKey{}, false
}

// constIntOf evaluates e as an integer constant.
func (an *analyzer) constIntOf(e ast.Expr) (int64, bool) {
	tv, ok := an.pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	return constant.Int64Val(tv.Value)
}

// constBoolOf evaluates e as a boolean constant.
func (an *analyzer) constBoolOf(e ast.Expr) (bool, bool) {
	tv, ok := an.pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Bool {
		return false, false
	}
	return constant.BoolVal(tv.Value), true
}

// calleeOf statically resolves a call's target function.
func (an *analyzer) calleeOf(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := an.pass.TypesInfo.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := an.pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// litCallee resolves a call through a single-assignment local function
// variable to its literal.
func (an *analyzer) litCallee(call *ast.CallExpr) *ast.FuncLit {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := an.pass.TypesInfo.Uses[id].(*types.Var)
	if !ok {
		return nil
	}
	return an.lits[v]
}

// reqCall classifies a call as a Req* setter on a Proc. A conditional
// setter whose cost argument is a positive constant is reported as
// unconditional: it can never take the zero-cost path.
func (an *analyzer) reqCall(call *ast.CallExpr) (name string, conditional, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	name = sel.Sel.Name
	costArg, isCond := condReq[name]
	if !isCond && !alwaysReq[name] {
		return "", false, false
	}
	if !isProc(an.pass.TypesInfo.TypeOf(sel.X)) {
		return "", false, false
	}
	if isCond && costArg < len(call.Args) {
		if c, isC := an.constIntOf(call.Args[costArg]); isC && c > 0 {
			isCond = false
		}
	}
	return name, isCond, true
}

// helperCall classifies a call as a step helper invocation and locates
// its frame argument (last argument by convention).
func (an *analyzer) helperCall(call *ast.CallExpr) (fn *types.Func, frame memKey, hasFrame bool, ok bool) {
	fn = an.calleeOf(call)
	if fn == nil || !an.helpers[fn] {
		return nil, memKey{}, false, false
	}
	if n := len(call.Args); n > 0 {
		if k, kOk := an.memKeyOf(call.Args[n-1]); kOk {
			return fn, k, true, true
		}
	}
	return fn, memKey{}, false, true
}

// isPanicCall matches a direct call of the panic builtin.
func (an *analyzer) isPanicCall(call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := an.pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}

// clearMbufUses releases every tracked mbuf local that appears inside e
// in a position that can transfer ownership: as a call argument or
// receiver, or captured by a closure. Conservative in the quiet
// direction — any such appearance clears.
func (an *analyzer) clearMbufUses(e ast.Expr, st *state) {
	if e == nil || st.dead || len(st.mbufs) == 0 {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			// A closure capturing the mbuf keeps it alive deliberately.
			ast.Inspect(n, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if v, ok := an.pass.TypesInfo.Uses[id].(*types.Var); ok {
						delete(st.mbufs, v)
					}
				}
				return true
			})
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
				if v, ok := an.pass.TypesInfo.Uses[id].(*types.Var); ok {
					delete(st.mbufs, v) // method call: Free/transfer/enqueue
				}
			}
		}
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
				if v, ok := an.pass.TypesInfo.Uses[id].(*types.Var); ok {
					delete(st.mbufs, v) // handed to the callee
				}
			}
		}
		return true
	})
}

// ---------------------------------------------------------------------------
// Statement execution over state disjunctions.

func (an *analyzer) execList(list []ast.Stmt, sts states, cx ctx) states {
	for _, s := range list {
		if len(sts) == 0 {
			return sts
		}
		sts = an.execStmt(s, sts, cx)
	}
	return sts
}

// mapStates applies a single-state transfer function to each disjunct.
func mapStates(sts states, f func(state) state) states {
	out := make(states, 0, len(sts))
	for _, st := range sts {
		out = append(out, f(st))
	}
	return pack(out)
}

func (an *analyzer) execStmt(s ast.Stmt, sts states, cx ctx) states {
	sts = pack(sts)
	if len(sts) == 0 {
		return sts
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		return an.execList(s.List, sts, cx)

	case *ast.ExprStmt:
		return an.execExprStmt(s, sts)

	case *ast.AssignStmt:
		return mapStates(sts, func(st state) state { return an.execAssign(s, st) })

	case *ast.DeclStmt:
		return mapStates(sts, func(st state) state { return an.execDecl(s, st) })

	case *ast.IncDecStmt:
		return mapStates(sts, func(st state) state {
			if k, ok := an.memKeyOf(s.X); ok {
				v := st.lookupInt(k)
				if !v.top {
					out := valSet{vals: map[int64]bool{}}
					for x := range v.vals {
						if s.Tok == token.INC {
							out.vals[x+1] = true
						} else {
							out.vals[x-1] = true
						}
					}
					st.ints[k] = out
				}
			}
			return st
		})

	case *ast.ReturnStmt:
		for _, st := range sts {
			an.execReturn(s, st)
		}
		return nil

	case *ast.IfStmt:
		if s.Init != nil {
			sts = an.execStmt(s.Init, sts, cx)
		}
		var tIn, fIn states
		for _, st := range sts {
			t, f := an.evalCond(s.Cond, st)
			tIn = append(tIn, t)
			fIn = append(fIn, f)
		}
		out := an.execStmt(s.Body, pack(tIn), cx)
		if s.Else != nil {
			out = append(out, an.execStmt(s.Else, pack(fIn), cx)...)
		} else {
			out = append(out, pack(fIn)...)
		}
		return pack(out)

	case *ast.ForStmt:
		return an.execFor(s, sts, cx)

	case *ast.RangeStmt:
		return an.execRange(s, sts)

	case *ast.SwitchStmt:
		return an.execSwitch(s, sts, cx)

	case *ast.TypeSwitchStmt:
		// Each arm from the same entry; protocol state rarely depends on
		// dynamic types.
		var brks states
		inner := ctx{brk: &brks, cont: cx.cont}
		if s.Init != nil {
			sts = an.execStmt(s.Init, sts, ctx{})
		}
		var out states
		hasDefault := false
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			if cc.List == nil {
				hasDefault = true
			}
			entry := make(states, len(sts))
			for i, st := range sts {
				entry[i] = st.clone()
			}
			out = append(out, an.execList(cc.Body, entry, inner)...)
		}
		if !hasDefault {
			out = append(out, sts...)
		}
		out = append(out, brks...)
		return pack(out)

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if cx.brk != nil {
				*cx.brk = append(*cx.brk, sts...)
			}
			return nil
		case token.CONTINUE:
			if cx.cont != nil {
				*cx.cont = append(*cx.cont, sts...)
			}
			return nil
		case token.FALLTHROUGH:
			// Handled by the switch executors (must be a clause's final
			// statement); pass the states through.
			return sts
		case token.GOTO:
			// No gotos in the step machines; give up on the path.
			return nil
		}
		return sts

	case *ast.LabeledStmt:
		return an.execStmt(s.Stmt, sts, cx)

	case *ast.DeferStmt, *ast.GoStmt, *ast.SelectStmt, *ast.SendStmt, *ast.EmptyStmt:
		// Outside the step idiom (and mostly banned by determinism);
		// ignore their effects.
		return sts
	}
	return sts
}

// execExprStmt handles statement-position calls: the spot where a
// discarded result is a protocol bug.
func (an *analyzer) execExprStmt(s *ast.ExprStmt, sts states) states {
	call, ok := ast.Unparen(s.X).(*ast.CallExpr)
	if !ok {
		return sts
	}
	if an.isPanicCall(call) {
		return nil
	}
	if name, conditional, ok := an.reqCall(call); ok {
		out := make(states, 0, len(sts))
		for _, st := range sts {
			an.checkDoubleArm(call.Pos(), name, st)
			if conditional {
				an.reportf(call.Pos(), "result of %s ignored: on the zero-cost path nothing is armed and the step would yield with no pending request; write `if p.%s(...) { ...; return }`", name, name)
			}
			an.clearMbufUses(call, &st)
			st.armed = aArmed
			out = append(out, st)
		}
		return pack(out)
	}
	if fn, frame, hasFrame, ok := an.helperCall(call); ok {
		an.reportf(call.Pos(), "result of step helper %s ignored: the caller cannot know whether the operation completed or yielded (use `if !%s(...) { return }`)", framework.ShortName(fn), fn.Name())
		out := make(states, 0, len(sts))
		for _, st := range sts {
			an.checkFrameReuse(call.Pos(), fn, frame, hasFrame, st)
			an.clearMbufUses(call, &st)
			if hasFrame {
				st.frames[frame] = fDone | fRunning
			}
			st.armed |= aArmed
			out = append(out, st)
		}
		return pack(out)
	}
	if lit := an.litCallee(call); lit != nil {
		var out states
		for _, st := range sts {
			t, f, outs, ok := an.inlineLit(lit, call, st)
			if !ok {
				an.clearMbufUses(call, &st)
				out = append(out, st)
				continue
			}
			out = append(out, t...)
			out = append(out, f...)
			out = append(out, outs...)
		}
		return pack(out)
	}
	// Reset on a tracked frame.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Reset" {
		if k, kOk := an.memKeyOf(sel.X); kOk {
			return mapStates(sts, func(st state) state {
				an.clearMbufUses(call, &st)
				st.frames[k] = fReset
				return st
			})
		}
	}
	// Any other call: mbuf arguments are handed off.
	return mapStates(sts, func(st state) state {
		an.clearMbufUses(call, &st)
		return st
	})
}

// inlineLit interprets a call to a local function literal in the caller's
// state: captured pc cells, frames and Req* effects inside the literal
// are applied for real. For a single-bool-result literal the return
// expressions are split into true/false edge states; for a void literal
// the states at its returns (and its fall-off end) are the call's output.
func (an *analyzer) inlineLit(lit *ast.FuncLit, call *ast.CallExpr, st state) (t, f, out states, ok bool) {
	sig, _ := an.pass.TypesInfo.TypeOf(lit).(*types.Signature)
	if sig == nil || sig.Results().Len() > 1 || an.inlining[lit] || an.inlineDepth >= 4 {
		return nil, nil, nil, false
	}
	boolResult := sig.Results().Len() == 1
	if boolResult && !isBool(sig.Results().At(0).Type()) {
		return nil, nil, nil, false
	}
	for _, arg := range call.Args {
		an.clearMbufUses(arg, &st)
	}
	acc := &inlineAcc{}
	prevAcc, prevDepth := an.inlineRet, an.inlineDepth
	an.inlineRet, an.inlineDepth = acc, an.inlineDepth+1
	an.inlining[lit] = true
	fall := an.execList(lit.Body.List, states{st.clone()}, ctx{})
	an.inlining[lit] = false
	an.inlineRet, an.inlineDepth = prevAcc, prevDepth
	if boolResult {
		return pack(acc.t), pack(acc.f), nil, true
	}
	return nil, nil, pack(append(acc.out, fall...)), true
}

// execAssign tracks constant stores to pc cells, composite-literal frame
// resets, and mbuf acquisition/release.
func (an *analyzer) execAssign(s *ast.AssignStmt, st state) state {
	// Right-hand sides first: calls may arm, and mbuf uses clear.
	for _, rhs := range s.Rhs {
		if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
			if name, conditional, ok := an.reqCall(call); ok {
				// `armed := p.ReqX(...)` — the stored bool is not tracked;
				// assume both outcomes.
				an.checkDoubleArm(call.Pos(), name, st)
				if conditional {
					st.armed |= aArmed | aNone
				} else {
					st.armed = aArmed
				}
			} else if fn, frame, hasFrame, ok := an.helperCall(call); ok {
				an.checkFrameReuse(call.Pos(), fn, frame, hasFrame, st)
				if hasFrame {
					st.frames[frame] = fDone | fRunning
				}
				st.armed |= aArmed | aNone
			}
		}
		an.clearMbufUses(rhs, &st)
	}
	n := len(s.Lhs)
	for i, lhs := range s.Lhs {
		var rhs ast.Expr
		if len(s.Rhs) == n {
			rhs = s.Rhs[i]
		} else if len(s.Rhs) == 1 {
			rhs = s.Rhs[0] // multi-value call: per-LHS values unknown
		}
		k, kOk := an.memKeyOf(lhs)
		if kOk && rhs != nil && len(s.Rhs) == n {
			// pc-style integer store.
			if c, isC := an.constIntOf(rhs); isC {
				st.ints[k] = single(c)
			} else if _, tracked := st.ints[k]; tracked {
				delete(st.ints, k) // non-constant store: back to top
			}
			// Frame overwrite with a fresh value resets it.
			if _, isLit := ast.Unparen(rhs).(*ast.CompositeLit); isLit {
				st.frames[k] = fReset
			} else if ce, isCall := ast.Unparen(rhs).(*ast.CallExpr); isCall && len(ce.Args) == 1 {
				if tv, ok := an.pass.TypesInfo.Types[ce.Fun]; ok && tv.IsType() {
					if _, inner := ast.Unparen(ce.Args[0]).(*ast.CompositeLit); inner {
						st.frames[k] = fReset // T(T2{...}) conversion
					}
				}
			}
		}
		// mbuf tracking.
		if id, isIdent := ast.Unparen(lhs).(*ast.Ident); isIdent {
			if v, isVar := an.pass.TypesInfo.ObjectOf(id).(*types.Var); isVar && an.locals[v] {
				switch {
				case rhs == nil:
					delete(st.mbufs, v)
				case isNilExpr(an.pass.TypesInfo, rhs):
					delete(st.mbufs, v)
				default:
					if _, isCall := ast.Unparen(rhs).(*ast.CallExpr); isCall && len(s.Rhs) == n {
						st.mbufs[v] = lhs.Pos() // acquired
					} else {
						delete(st.mbufs, v) // aliased from elsewhere: caller's problem
					}
				}
				continue
			}
		}
		// Storing a held mbuf into anything non-local transfers it.
		if rhs != nil {
			if id, ok := ast.Unparen(rhs).(*ast.Ident); ok {
				if v, ok := an.pass.TypesInfo.Uses[id].(*types.Var); ok {
					delete(st.mbufs, v)
				}
			}
		}
	}
	return st
}

func isNilExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[ast.Unparen(e)]
	return ok && tv.IsNil()
}

// execDecl handles `var m = acquire()` declarations.
func (an *analyzer) execDecl(s *ast.DeclStmt, st state) state {
	gd, ok := s.Decl.(*ast.GenDecl)
	if !ok {
		return st
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for i, name := range vs.Names {
			v, ok := an.pass.TypesInfo.Defs[name].(*types.Var)
			if !ok {
				continue
			}
			if i < len(vs.Values) {
				an.clearMbufUses(vs.Values[i], &st)
				if an.locals[v] {
					if _, isCall := ast.Unparen(vs.Values[i]).(*ast.CallExpr); isCall {
						st.mbufs[v] = name.Pos()
					}
				}
				if c, isC := an.constIntOf(vs.Values[i]); isC {
					st.ints[memKey{v: v}] = single(c)
				}
			}
		}
	}
	return st
}

// execReturn applies the protocol checks at a return site — or, inside
// an inlined literal, routes the state to the call's result edges.
func (an *analyzer) execReturn(s *ast.ReturnStmt, st state) {
	if st.dead {
		return
	}
	if acc := an.inlineRet; acc != nil {
		if len(s.Results) == 1 {
			t, f := an.evalCond(s.Results[0], st)
			acc.t = append(acc.t, t)
			acc.f = append(acc.f, f)
		} else {
			acc.out = append(acc.out, st)
		}
		return
	}
	for _, r := range s.Results {
		an.clearMbufUses(r, &st)
		// Returning the mbuf itself hands it to the caller.
		if id, ok := ast.Unparen(r).(*ast.Ident); ok {
			if v, ok := an.pass.TypesInfo.Uses[id].(*types.Var); ok {
				delete(st.mbufs, v)
			}
		}
	}
	if !an.helper {
		an.checkStepReturn(s.Pos(), st)
		return
	}
	if len(s.Results) != 1 {
		return
	}
	val, isConst := an.constBoolOf(s.Results[0])
	if !isConst {
		return // computed result: cannot tell yield from completion
	}
	if val {
		if st.armed&aArmed != 0 {
			an.reportf(s.Pos(), "step helper completes (return true) with a request possibly still pending: the scheduler would apply a stale request; completion paths must not arm")
		}
	} else {
		if st.armed&aNone != 0 {
			an.reportf(s.Pos(), "step helper yields (return false) with possibly no pending request: every yield path must arm a Req* setter first (the scheduler panics on an empty request)")
		}
		an.checkMbufHeld(s.Pos(), st)
	}
}

// checkStepReturn checks a StepFn-body return (every return is a yield
// back to the scheduler).
func (an *analyzer) checkStepReturn(pos token.Pos, st state) {
	if st.dead {
		return
	}
	if st.armed&aNone != 0 {
		an.reportf(pos, "step body may return with no pending request: kernel.stepStackless panics on an empty request; every path to return must arm exactly one Req* setter")
	}
	an.checkMbufHeld(pos, st)
}

// checkMbufHeld reports mbuf locals still held at a yield.
func (an *analyzer) checkMbufHeld(pos token.Pos, st state) {
	for v := range st.mbufs {
		an.reportf(pos, "mbuf in %q may still be held at this yield: locals do not survive a dispatch, so transfer it (store into the frame or a queue), free it, or prove it nil before yielding", v.Name())
	}
}

// checkDoubleArm reports arming over an already-pending request.
func (an *analyzer) checkDoubleArm(pos token.Pos, name string, st state) {
	if !st.dead && st.armed&aArmed != 0 {
		an.reportf(pos, "%s may overwrite a request armed earlier on this path: the scheduler applies only the last request, so the first is lost (return to the scheduler between requests)", name)
	}
}

// checkFrameReuse reports stepping a completed frame that was not Reset.
func (an *analyzer) checkFrameReuse(pos token.Pos, fn *types.Func, frame memKey, hasFrame bool, st state) {
	if !hasFrame || st.dead {
		return
	}
	if st.frames[frame]&fDone != 0 {
		an.reportf(pos, "frame passed to %s may have already completed on this path without a Reset: a completed frame's pc still holds its final state, so re-stepping it resumes in the wrong arm", framework.ShortName(fn))
	}
}

// ---------------------------------------------------------------------------
// Conditions.

// evalCond evaluates a branch condition, returning the states on the
// true and false edges. Calls inside the condition apply their protocol
// effects to the respective edge.
func (an *analyzer) evalCond(e ast.Expr, st state) (state, state) {
	if st.dead {
		return st, st
	}
	if v, isC := an.constBoolOf(e); isC {
		if v {
			return st.clone(), deadState()
		}
		return deadState(), st.clone()
	}
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.UnaryExpr:
		if x.Op == token.NOT {
			t, f := an.evalCond(x.X, st)
			return f, t
		}
	case *ast.BinaryExpr:
		switch x.Op {
		case token.LAND:
			t1, f1 := an.evalCond(x.X, st)
			t2, f2 := an.evalCond(x.Y, t1)
			f2.join(f1)
			return t2, f2
		case token.LOR:
			t1, f1 := an.evalCond(x.X, st)
			t2, f2 := an.evalCond(x.Y, f1)
			t2.join(t1)
			return t2, f2
		case token.EQL, token.NEQ:
			return an.evalCompare(x, st)
		}
	case *ast.CallExpr:
		return an.evalCondCall(x, st)
	}
	// Opaque condition: same state on both edges, after call noise.
	out := st.clone()
	an.clearMbufUses(e, &out)
	return out, out.clone()
}

// evalCompare refines tracked cells across ==/!= against constants and
// nil.
func (an *analyzer) evalCompare(x *ast.BinaryExpr, st state) (state, state) {
	refine := func(keyExpr, valExpr ast.Expr) (state, state, bool) {
		// mbuf nil test.
		if id, ok := ast.Unparen(keyExpr).(*ast.Ident); ok && isNilExpr(an.pass.TypesInfo, valExpr) {
			if v, ok := an.pass.TypesInfo.Uses[id].(*types.Var); ok && an.locals[v] {
				eq := st.clone() // == nil: not held
				delete(eq.mbufs, v)
				ne := st.clone()
				if x.Op == token.EQL {
					return eq, ne, true
				}
				return ne, eq, true
			}
		}
		// tracked int vs constant.
		k, kOk := an.memKeyOf(keyExpr)
		c, cOk := an.constIntOf(valExpr)
		if !kOk || !cOk {
			return state{}, state{}, false
		}
		cur := st.lookupInt(k)
		eq := st.clone()
		eq.ints[k] = single(c)
		if !cur.top && !cur.vals[c] {
			eq = deadState()
		}
		ne := st.clone()
		if !cur.top {
			rest := valSet{vals: map[int64]bool{}}
			for v := range cur.vals {
				if v != c {
					rest.vals[v] = true
				}
			}
			if len(rest.vals) == 0 {
				ne = deadState()
			} else {
				ne.ints[k] = rest
			}
		}
		if x.Op == token.EQL {
			return eq, ne, true
		}
		return ne, eq, true
	}
	if t, f, ok := refine(x.X, x.Y); ok {
		return t, f
	}
	if t, f, ok := refine(x.Y, x.X); ok {
		return t, f
	}
	out := st.clone()
	an.clearMbufUses(x, &out)
	return out, out.clone()
}

// evalCondCall applies a call's protocol effects per branch edge.
func (an *analyzer) evalCondCall(call *ast.CallExpr, st state) (state, state) {
	if name, conditional, ok := an.reqCall(call); ok {
		an.checkDoubleArm(call.Pos(), name, st)
		t := st.clone()
		an.clearMbufUses(call, &t)
		t.armed = aArmed
		if conditional {
			f := st.clone()
			an.clearMbufUses(call, &f)
			return t, f // false edge: zero-cost no-op, nothing armed
		}
		return t, deadState() // always-arm setters return true
	}
	if fn, frame, hasFrame, ok := an.helperCall(call); ok {
		an.checkFrameReuse(call.Pos(), fn, frame, hasFrame, st)
		t := st.clone()
		an.clearMbufUses(call, &t)
		f := t.clone()
		if hasFrame {
			t.frames[frame] = fDone    // completed: results in frame
			f.frames[frame] = fRunning // yielded mid-operation
		}
		f.armed = aArmed // the helper armed before returning false
		return t, f
	}
	if lit := an.litCallee(call); lit != nil {
		if t, f, _, ok := an.inlineLit(lit, call, st); ok {
			return joinAll(t), joinAll(f)
		}
	}
	out := st.clone()
	an.clearMbufUses(call, &out)
	return out, out.clone()
}

// ---------------------------------------------------------------------------
// Loops and switches.

// execFor interprets a for loop. The machine idiom — `for` with no
// condition whose body is a single switch over a tracked integer cell
// with constant cases — gets the per-arm partitioned fixpoint; everything
// else gets a joined fixpoint.
func (an *analyzer) execFor(s *ast.ForStmt, sts states, cx ctx) states {
	if s.Init != nil {
		sts = an.execStmt(s.Init, sts, ctx{})
	}
	if sw, key, ok := an.matchMachine(s); ok {
		an.execMachine(sw, key, sts)
		return nil // the dispatch loop never falls through
	}
	var brks states
	entry := joinAll(sts)
	for {
		var conts states
		inner := ctx{brk: &brks, cont: &conts}
		iter := states{entry.clone()}
		if s.Cond != nil {
			var tIn states
			for _, st := range iter {
				t, f := an.evalCond(s.Cond, st)
				tIn = append(tIn, t)
				brks = append(brks, f)
			}
			iter = pack(tIn)
		}
		fall := an.execStmt(s.Body, iter, inner)
		fall = append(fall, conts...)
		if s.Post != nil {
			fall = an.execStmt(s.Post, fall, ctx{})
		}
		if !entry.join(joinAll(fall)) {
			break
		}
	}
	return pack(brks)
}

// execRange interprets a range loop: body runs zero or more times.
func (an *analyzer) execRange(s *ast.RangeStmt, sts states) states {
	sts = mapStates(sts, func(st state) state {
		an.clearMbufUses(s.X, &st)
		return st
	})
	var brks states
	entry := joinAll(sts)
	for {
		var conts states
		inner := ctx{brk: &brks, cont: &conts}
		fall := an.execStmt(s.Body, states{entry.clone()}, inner)
		fall = append(fall, conts...)
		if !entry.join(joinAll(fall)) {
			break
		}
	}
	out := append(states{}, sts...) // zero iterations
	out = append(out, brks...)
	return pack(out)
}

// matchMachine recognizes the step-machine dispatch shape.
func (an *analyzer) matchMachine(s *ast.ForStmt) (*ast.SwitchStmt, memKey, bool) {
	if s.Cond != nil || s.Post != nil || len(s.Body.List) != 1 {
		return nil, memKey{}, false
	}
	sw, ok := s.Body.List[0].(*ast.SwitchStmt)
	if !ok || sw.Init != nil || sw.Tag == nil {
		return nil, memKey{}, false
	}
	key, ok := an.memKeyOf(sw.Tag)
	if !ok {
		return nil, memKey{}, false
	}
	for _, c := range sw.Body.List {
		cc := c.(*ast.CaseClause)
		for _, e := range cc.List {
			if _, isC := an.constIntOf(e); !isC {
				return nil, memKey{}, false
			}
		}
	}
	return sw, key, true
}

// execMachine runs the per-arm partitioned fixpoint over a machine
// switch: each arm keeps its own (joined) entry state, dispatch refines
// the pc cell to the matched case values, and every arm exit (end of
// case, break, continue) re-dispatches — each exit disjunct separately,
// so branch-dependent pc assignments route precisely. The loop itself
// never falls through: every way out is a return.
func (an *analyzer) execMachine(sw *ast.SwitchStmt, key memKey, sts states) {
	clauses := make([]*ast.CaseClause, len(sw.Body.List))
	consts := make([][]int64, len(clauses))
	defaultIdx := -1
	var allConsts []int64
	for i, c := range sw.Body.List {
		cc := c.(*ast.CaseClause)
		clauses[i] = cc
		if cc.List == nil {
			defaultIdx = i
			continue
		}
		for _, e := range cc.List {
			v, _ := an.constIntOf(e)
			consts[i] = append(consts[i], v)
			allConsts = append(allConsts, v)
		}
	}
	entries := make([]state, len(clauses))
	for i := range entries {
		entries[i] = deadState()
	}
	dirty := make([]bool, len(clauses))

	dispatch := func(s state) {
		if s.dead {
			return
		}
		pc := s.lookupInt(key)
		for i, cc := range clauses {
			if cc.List == nil {
				continue
			}
			var matched []int64
			for _, v := range consts[i] {
				if pc.top || pc.vals[v] {
					matched = append(matched, v)
				}
			}
			if len(matched) == 0 {
				continue
			}
			e := s.clone()
			vs := valSet{vals: map[int64]bool{}}
			for _, v := range matched {
				vs.vals[v] = true
			}
			e.ints[key] = vs
			if entries[i].join(e) {
				dirty[i] = true
			}
		}
		if defaultIdx >= 0 {
			e := s.clone()
			if !pc.top {
				rest := valSet{vals: map[int64]bool{}}
				for v := range pc.vals {
					covered := false
					for _, c := range allConsts {
						if v == c {
							covered = true
							break
						}
					}
					if !covered {
						rest.vals[v] = true
					}
				}
				if len(rest.vals) == 0 {
					return
				}
				e.ints[key] = rest
			}
			if entries[defaultIdx].join(e) {
				dirty[defaultIdx] = true
			}
		}
	}
	for _, st := range sts {
		dispatch(st)
	}
	for {
		i := -1
		for j, d := range dirty {
			if d {
				i = j
				break
			}
		}
		if i < 0 {
			break
		}
		dirty[i] = false
		body := clauses[i].Body
		fallsThrough := false
		if n := len(body); n > 0 {
			if b, ok := body[n-1].(*ast.BranchStmt); ok && b.Tok == token.FALLTHROUGH {
				fallsThrough = true
				body = body[:n-1]
			}
		}
		var redisp states
		inner := ctx{brk: &redisp, cont: &redisp}
		out := an.execList(body, states{entries[i].clone()}, inner)
		if fallsThrough && i+1 < len(clauses) {
			if entries[i+1].join(joinAll(out)) {
				dirty[i+1] = true
			}
		} else {
			redisp = append(redisp, out...)
		}
		for _, r := range redisp {
			dispatch(r)
		}
	}
}

// execSwitch interprets a switch outside the machine-loop shape,
// refining the tag cell per arm when it is tracked and constant.
func (an *analyzer) execSwitch(s *ast.SwitchStmt, sts states, cx ctx) states {
	if s.Init != nil {
		sts = an.execStmt(s.Init, sts, ctx{})
	}
	var key memKey
	keyOk := false
	if s.Tag != nil {
		key, keyOk = an.memKeyOf(s.Tag)
	}
	var brks states
	inner := ctx{brk: &brks, cont: cx.cont}
	var out states
	hasDefault := false
	var pending states // fallthrough carry
	for _, c := range s.Body.List {
		cc := c.(*ast.CaseClause)
		var entry states
		switch {
		case cc.List == nil:
			hasDefault = true
			for _, st := range sts {
				entry = append(entry, st.clone())
			}
		case keyOk:
			for _, st := range sts {
				e := st.clone()
				vs := valSet{vals: map[int64]bool{}}
				allConst := true
				for _, x := range cc.List {
					v, isC := an.constIntOf(x)
					if !isC {
						allConst = false
						break
					}
					vs.vals[v] = true
				}
				if allConst {
					cur := st.lookupInt(key)
					if !cur.top {
						inter := valSet{vals: map[int64]bool{}}
						for v := range vs.vals {
							if cur.vals[v] {
								inter.vals[v] = true
							}
						}
						vs = inter
					}
					if len(vs.vals) == 0 {
						continue
					}
					e.ints[key] = vs
				}
				entry = append(entry, e)
			}
		case s.Tag == nil && len(cc.List) == 1:
			// Expression switch: `switch { case cond: }`.
			for _, st := range sts {
				t, _ := an.evalCond(cc.List[0], st)
				entry = append(entry, t)
			}
		default:
			for _, st := range sts {
				entry = append(entry, st.clone())
			}
		}
		entry = append(entry, pending...)
		pending = nil
		body := cc.Body
		fallsThrough := false
		if n := len(body); n > 0 {
			if b, ok := body[n-1].(*ast.BranchStmt); ok && b.Tok == token.FALLTHROUGH {
				fallsThrough = true
				body = body[:n-1]
			}
		}
		cOut := an.execList(body, pack(entry), inner)
		if fallsThrough {
			pending = cOut
		} else {
			out = append(out, cOut...)
		}
	}
	out = append(out, pending...)
	if !hasDefault {
		out = append(out, sts...) // no arm matched
	}
	out = append(out, brks...)
	return pack(out)
}
