// Package detlint statically enforces the simulator's bit-determinism
// contract. The differential fuzzing harness and the run cache are both
// unsound if two runs of the same configuration can diverge, so packages
// marked //ce:deterministic must not let any nondeterminism source — map
// iteration order, the host clock, math/rand, goroutine scheduling,
// pointer formatting — influence their observable behavior.
//
// Rules, in packages carrying the //ce:deterministic marker:
//
//   - map iteration whose order escapes: a `for range` over a map is
//     flagged when its body writes outer state order-dependently, appends
//     to an outer slice (unless the slice is immediately sorted — the
//     collect-keys-then-sort idiom), exits the loop early, sends on a
//     channel, or leaks the iteration order through a call. Pure
//     membership counting, distinct-key writes (`out[k] = v`) and
//     commutative integer accumulation (`n += v`) pass.
//   - time.Now / time.Since / time.Until (host clock reads).
//   - any math/rand import.
//   - goroutine launches (the cycle loop is single-threaded by contract).
//   - %p format verbs (pointer values differ run to run).
//
// The analysis is also interprocedural: detlint runs fact-only over every
// package of the module (marked or not), recording a DetFact for each
// function that transitively reaches a nondeterminism source, propagated
// bottom-up over the package DAG. A //ce:deterministic package calling
// another package's function whose fact says "nondeterministic" is a
// finding at the call site, with the callee chain down to the root source
// in the message. Within a marked package only the direct sites are
// reported (every function there is checked directly, so flagging callers
// too would be noise), and marked packages export no nondet facts — their
// own pass enforces the contract, so callers may trust them.
//
// The hatch `//ce:nondet-ok <reason>` suppresses a finding on its line
// and excludes the site (or call) from fact propagation.
package detlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/directive"
)

// Analyzer is the detlint pass.
var Analyzer = &analysis.Analyzer{
	Name:      "detlint",
	Doc:       "flags nondeterminism sources in (and transitively reachable from) //ce:deterministic packages",
	Run:       run,
	FactTypes: []analysis.Fact{new(DetFact)},
}

// DetFact is detlint's verdict on one function, exported for functions
// with exported names in unmarked packages.
type DetFact struct {
	// Nondet marks a function that transitively reaches a nondeterminism
	// source.
	Nondet bool
	// Why describes the root source ("time.Now reads the host clock").
	Why string
	// Trail is the call chain from this function down to the source,
	// starting with this function's own name.
	Trail []string
}

// AFact marks DetFact as a fact type.
func (*DetFact) AFact() {}

// chain renders the fact for a finding message.
func (f *DetFact) chain() string {
	return strings.Join(f.Trail, " → ") + ": " + f.Why
}

// dcall is one statically-resolved call inside a function.
type dcall struct {
	pos     token.Pos
	callee  *types.Func
	hatched bool
}

// fnData is the per-function fact-collection state.
type fnData struct {
	obj      *types.Func
	firstWhy string // first unhatched direct nondet source, "" if none
	calls    []dcall
	fact     *DetFact
}

func run(pass *analysis.Pass) (any, error) {
	marked := directive.PackageMarked(pass.Files, directive.Deterministic)

	// Direct-site reporting, in marked packages only (unchanged from the
	// intra-package analyzer).
	if marked {
		for _, f := range pass.Files {
			c := &checker{pass: pass, hatch: directive.NewIndex(pass.Fset, f, directive.NondetOK)}
			c.emit = func(pos token.Pos, category, msg string) {
				pass.Report(analysis.Diagnostic{Pos: pos, Category: category, Message: msg})
			}
			c.file(f)
		}
	}

	// Fact collection, in every package: per function, the first unhatched
	// direct source plus the statically-resolved calls.
	var fns []*fnData
	byObj := make(map[*types.Func]*fnData)
	for _, f := range pass.Files {
		hatch := directive.NewIndex(pass.Fset, f, directive.NondetOK)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			d := &fnData{obj: obj}
			c := &checker{pass: pass, hatch: hatch, factMode: true}
			c.emit = func(pos token.Pos, category, msg string) {
				if d.firstWhy == "" {
					d.firstWhy = msg
				}
			}
			c.funcBody(f, fd)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if callee := staticCallee(pass.TypesInfo, call); callee != nil {
					_, hatched := hatch.Covering(call.Pos())
					d.calls = append(d.calls, dcall{pos: call.Pos(), callee: callee, hatched: hatched})
				}
				return true
			})
			fns = append(fns, d)
			byObj[obj] = d
		}
	}

	// Propagate to a fixpoint in deterministic (source) order.
	for _, d := range fns {
		d.fact = &DetFact{}
		if d.firstWhy != "" {
			d.fact.Nondet = true
			d.fact.Why = d.firstWhy
			d.fact.Trail = []string{d.obj.Name()}
		}
	}
	calleeFact := func(callee *types.Func) *DetFact {
		if d, ok := byObj[callee]; ok {
			return d.fact
		}
		if pass.ImportObjectFact == nil {
			return nil
		}
		var f DetFact
		if pass.ImportObjectFact(callee, &f) {
			return &f
		}
		return nil
	}
	for changed := true; changed; {
		changed = false
		for _, d := range fns {
			if d.fact.Nondet {
				continue
			}
			for _, cs := range d.calls {
				if cs.hatched {
					continue
				}
				cf := calleeFact(cs.callee)
				if cf == nil || !cf.Nondet {
					continue
				}
				d.fact.Nondet = true
				d.fact.Why = cf.Why
				d.fact.Trail = append([]string{d.obj.Name()}, cf.Trail...)
				changed = true
				break
			}
		}
	}

	// Marked packages export no nondet facts: their own pass enforces the
	// contract, so callers may trust them.
	if pass.ExportObjectFact != nil && !marked {
		for _, d := range fns {
			if d.fact.Nondet && ast.IsExported(d.obj.Name()) {
				pass.ExportObjectFact(d.obj, d.fact)
			}
		}
	}

	// Transitive findings: a marked package calling another package's
	// nondeterministic function. Intra-package sites were reported
	// directly above.
	if marked {
		for _, d := range fns {
			for _, cs := range d.calls {
				if cs.hatched || cs.callee.Pkg() == pass.Pkg {
					continue
				}
				cf := calleeFact(cs.callee)
				if cf == nil || !cf.Nondet {
					continue
				}
				pass.Report(analysis.Diagnostic{
					Pos:      cs.pos,
					Category: "transitive-nondet",
					Message: fmt.Sprintf("call to %s is transitively nondeterministic (%s) in a //ce:deterministic package; add //ce:nondet-ok <reason>",
						calleeLabel(pass.Pkg, cs.callee), cf.chain()),
				})
			}
		}
	}
	return nil, nil
}

// staticCallee resolves a call to its target function when the target is
// known statically.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// calleeLabel names a callee for a finding message, package-qualified
// when it lives elsewhere.
func calleeLabel(from *types.Package, callee *types.Func) string {
	if callee.Pkg() == nil || callee.Pkg() == from {
		return callee.Name()
	}
	return callee.Pkg().Name() + "." + callee.Name()
}

type checker struct {
	pass  *analysis.Pass
	hatch *directive.Index
	emit  func(pos token.Pos, category, msg string)
	// factMode strips reader-facing advice from messages, since fact text
	// is embedded in the transitive findings of other packages.
	factMode bool
}

// report emits a diagnostic unless an escape hatch covers pos.
func (c *checker) report(pos token.Pos, category, format string, args ...any) {
	if _, ok := c.hatch.Covering(pos); ok {
		return
	}
	c.emit(pos, category, fmt.Sprintf(format, args...))
}

// funcBody applies the direct-site rules to one function body, feeding
// the checker's emit sink (used for fact collection).
func (c *checker) funcBody(f *ast.File, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			c.report(n.Pos(), "goroutine", "launches a goroutine (scheduling order is nondeterministic)")
		case *ast.CallExpr:
			c.call(n)
		case *ast.RangeStmt:
			c.rangeStmt(n, followingStmts(f, n))
		}
		return true
	})
}

func (c *checker) file(f *ast.File) {
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		if path == "math/rand" || path == "math/rand/v2" {
			c.report(imp.Pos(), "rand",
				"import of %s in a //ce:deterministic package (seeded prog-level randomness belongs outside the simulator core)", path)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			c.report(n.Pos(), "goroutine",
				"goroutine launch in a //ce:deterministic package (scheduling order is nondeterministic)")
		case *ast.CallExpr:
			c.call(n)
		case *ast.RangeStmt:
			c.rangeStmt(n, followingStmts(f, n))
		}
		return true
	})
}

// call flags host-clock reads and %p formatting.
func (c *checker) call(call *ast.CallExpr) {
	if pkg, name := c.calleePkgFunc(call); pkg == "time" && (name == "Now" || name == "Since" || name == "Until") {
		suffix := " in a //ce:deterministic package"
		if c.factMode {
			suffix = "" // fact text travels into other packages' messages
		}
		c.report(call.Pos(), "clock",
			"time.%s reads the host clock%s", name, suffix)
	} else if pkg == "fmt" {
		for _, arg := range call.Args {
			lit, ok := arg.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				continue
			}
			if s, err := strconv.Unquote(lit.Value); err == nil && strings.Contains(s, "%p") {
				c.report(lit.Pos(), "pointer-format",
					"%%p formats a pointer value, which differs run to run")
			}
		}
	}
}

// calleePkgFunc resolves a call to (package path, function name) for
// direct package-level calls like time.Now(); otherwise ("", "").
func (c *checker) calleePkgFunc(call *ast.CallExpr) (pkg, name string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	pn, ok := c.pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok {
		return "", ""
	}
	return pn.Imported().Path(), sel.Sel.Name
}

// rangeStmt analyzes one `for range` over a map for order escapes.
// following holds the statements after the loop in its enclosing block
// (for the collect-then-sort exemption).
func (c *checker) rangeStmt(rs *ast.RangeStmt, following []ast.Stmt) {
	t := c.pass.TypesInfo.TypeOf(rs.X)
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}
	w := newEscapeWalker(c.pass.TypesInfo, rs)
	w.walkBody()
	if w.esc == "" {
		return
	}
	if w.onlyAppends && w.sortable != nil && c.sortedAfter(w.sortable, following) {
		return
	}
	if c.factMode {
		c.report(rs.For, "map-order", "map iteration order escapes (%s)", w.esc)
		return
	}
	c.report(rs.For, "map-order",
		"map iteration order escapes (%s); iterate a sorted key slice or add //ce:nondet-ok <reason>", w.esc)
}

// escapeWalker classifies the effects of one map-range body. It records
// the first order escape; when the only escapes are appends to a single
// outer slice variable, that variable is the collect-then-sort candidate.
type escapeWalker struct {
	info     *types.Info
	rs       *ast.RangeStmt
	loopVars map[types.Object]bool // the range key/value variables
	inner    map[types.Object]bool // objects declared inside the body

	esc         string     // first escape description ("" = none)
	sortable    *ast.Ident // sole append target, when exempt-eligible
	onlyAppends bool
}

func newEscapeWalker(info *types.Info, rs *ast.RangeStmt) *escapeWalker {
	w := &escapeWalker{
		info:        info,
		rs:          rs,
		loopVars:    make(map[types.Object]bool),
		inner:       make(map[types.Object]bool),
		onlyAppends: true,
	}
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		if obj := info.Defs[id]; obj != nil {
			w.loopVars[obj] = true
		} else if obj := info.Uses[id]; obj != nil {
			w.loopVars[obj] = true // `for k = range m` assigning an outer k
		}
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Defs[id]; obj != nil {
				w.inner[obj] = true
			}
		}
		return true
	})
	return w
}

// escape records a non-append order escape.
func (w *escapeWalker) escape(why string) {
	if w.esc == "" {
		w.esc = why
	}
	w.onlyAppends = false
}

func (w *escapeWalker) walkBody() {
	// `for k = range m` with an outer k leaves the last-iterated key
	// behind, which is itself order-dependent.
	if w.rs.Tok == token.ASSIGN {
		for _, e := range []ast.Expr{w.rs.Key, w.rs.Value} {
			if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
				w.escape(fmt.Sprintf("loop variable %q outlives the loop with the last-iterated element", id.Name))
			}
		}
	}
	w.walk(w.rs.Body, walkCtx{})
}

// walkCtx tracks the syntactic context of the node being visited.
type walkCtx struct {
	loopDepth   int // nested for/range loops below the map range
	switchDepth int // nested switch/select (unlabeled break targets these)
	funcDepth   int // nested function literals (return exits these)
}

// walk visits n, dispatching statements to effect classification. It
// recurses manually so each node sees its enclosing context.
func (w *escapeWalker) walk(n ast.Node, ctx walkCtx) {
	if n == nil {
		return
	}
	switch n := n.(type) {
	case *ast.BlockStmt:
		for _, s := range n.List {
			w.walk(s, ctx)
		}
	case *ast.IfStmt:
		w.walk(n.Init, ctx)
		w.walkExpr(n.Cond, ctx)
		w.walk(n.Body, ctx)
		w.walk(n.Else, ctx)
	case *ast.ForStmt:
		inner := ctx
		inner.loopDepth++
		w.walk(n.Init, inner)
		w.walkExpr(n.Cond, inner)
		w.walk(n.Post, inner)
		w.walk(n.Body, inner)
	case *ast.RangeStmt:
		inner := ctx
		inner.loopDepth++
		w.walkExpr(n.X, ctx)
		// An inner map range is itself suspect, but the enclosing Inspect
		// visits it separately; here it only contributes its body effects.
		if n.Tok == token.ASSIGN {
			for _, e := range []ast.Expr{n.Key, n.Value} {
				if e != nil {
					w.checkWrite(e, token.ASSIGN, nil, inner)
				}
			}
		}
		w.walk(n.Body, inner)
	case *ast.SwitchStmt:
		inner := ctx
		inner.switchDepth++
		w.walk(n.Init, ctx)
		w.walkExpr(n.Tag, ctx)
		for _, clause := range n.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					w.walkExpr(e, ctx)
				}
				for _, s := range cc.Body {
					w.walk(s, inner)
				}
			}
		}
	case *ast.TypeSwitchStmt:
		inner := ctx
		inner.switchDepth++
		w.walk(n.Init, ctx)
		w.walk(n.Assign, ctx)
		for _, clause := range n.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				for _, s := range cc.Body {
					w.walk(s, inner)
				}
			}
		}
	case *ast.SelectStmt:
		inner := ctx
		inner.switchDepth++
		for _, clause := range n.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok {
				w.walk(cc.Comm, inner)
				for _, s := range cc.Body {
					w.walk(s, inner)
				}
			}
		}
	case *ast.BranchStmt:
		switch n.Tok {
		case token.BREAK:
			if ctx.funcDepth > 0 {
				return
			}
			if n.Label != nil {
				w.escape("labeled break exits the loop early")
			} else if ctx.loopDepth == 0 && ctx.switchDepth == 0 {
				w.escape("break exits the loop early")
			}
		case token.GOTO:
			if ctx.funcDepth == 0 {
				w.escape("goto may exit the loop early")
			}
		}
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			w.walkExpr(r, ctx)
		}
		if ctx.funcDepth == 0 {
			w.escape("return exits the loop early")
		}
	case *ast.SendStmt:
		w.escape("channel send publishes values in iteration order")
	case *ast.DeferStmt, *ast.GoStmt:
		// Reported separately (GoStmt) or out of scope; still scan args.
		if d, ok := n.(*ast.DeferStmt); ok {
			w.walkExpr(d.Call, ctx)
		}
	case *ast.AssignStmt:
		for i, lhs := range n.Lhs {
			var rhs ast.Expr
			if len(n.Rhs) == len(n.Lhs) {
				rhs = n.Rhs[i]
			} else if len(n.Rhs) == 1 {
				rhs = n.Rhs[0]
			}
			if call, ok := rhs.(*ast.CallExpr); ok && isBuiltin(w.info, call, "append") {
				w.checkAppend(lhs, call, ctx)
				for _, arg := range call.Args[1:] {
					w.walkExpr(arg, ctx)
				}
				continue
			}
			w.checkWrite(lhs, n.Tok, rhs, ctx)
			if rhs != nil {
				w.walkExpr(rhs, ctx)
			}
		}
	case *ast.IncDecStmt:
		w.checkWrite(n.X, n.Tok, nil, ctx)
	case *ast.ExprStmt:
		w.walkExpr(n.X, ctx)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.walkExpr(v, ctx)
					}
				}
			}
		}
	case *ast.LabeledStmt:
		w.walk(n.Stmt, ctx)
	}
}

// walkExpr scans an expression for calls and function literals.
func (w *escapeWalker) walkExpr(e ast.Expr, ctx walkCtx) {
	if e == nil {
		return
	}
	switch e := e.(type) {
	case *ast.FuncLit:
		inner := ctx
		inner.funcDepth++
		w.walk(e.Body, inner)
	case *ast.CallExpr:
		w.checkCall(e, ctx)
	default:
		ast.Inspect(e, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				inner := ctx
				inner.funcDepth++
				w.walk(n.Body, inner)
				return false
			case *ast.CallExpr:
				w.checkCall(n, ctx)
				return false
			}
			return true
		})
	}
}

// checkCall classifies a call inside the loop body.
func (w *escapeWalker) checkCall(call *ast.CallExpr, ctx walkCtx) {
	// A type conversion (float64(n), T(v)) is pure: it produces a value
	// without observing anything about iteration order. Only its operand
	// needs scanning.
	if tv, ok := w.info.Types[call.Fun]; ok && tv.IsType() {
		for _, arg := range call.Args {
			w.walkExpr(arg, ctx)
		}
		return
	}
	switch {
	case isBuiltin(w.info, call, "append"):
		// An append whose result is discarded or nested has no visible
		// destination here; the enclosing AssignStmt case handles the
		// common shape. Scan arguments for nested calls.
	case isBuiltin(w.info, call, "delete"):
		// delete(m2, k) removes a distinct key per iteration, and deleting
		// a loop-independent key is idempotent; both are order-safe.
		return
	case isBuiltin(w.info, call, "len"), isBuiltin(w.info, call, "cap"),
		isBuiltin(w.info, call, "min"), isBuiltin(w.info, call, "max"),
		isBuiltin(w.info, call, "copy"):
	default:
		// A call receiving the loop variables can do anything with them —
		// hash, print, accumulate — in iteration order.
		for _, arg := range call.Args {
			if w.usesLoopVar(arg) {
				w.escape(fmt.Sprintf("iteration order escapes into call %s", types.ExprString(call.Fun)))
				return
			}
		}
		// A method call on a loop variable leaks order the same way.
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && w.usesLoopVar(sel.X) {
			w.escape(fmt.Sprintf("iteration order escapes into call %s", types.ExprString(call.Fun)))
			return
		}
	}
	for _, arg := range call.Args {
		w.walkExpr(arg, ctx)
	}
}

// checkAppend handles `lhs = append(src, ...)`.
func (w *escapeWalker) checkAppend(lhs ast.Expr, call *ast.CallExpr, ctx walkCtx) {
	root := w.rootObj(lhs)
	if root == nil || w.inner[root] || w.loopVars[root] {
		return // per-iteration slice
	}
	id, isIdent := lhs.(*ast.Ident)
	if !isIdent {
		w.escape(fmt.Sprintf("append to %q records iteration order", types.ExprString(lhs)))
		return
	}
	if w.esc == "" {
		w.esc = fmt.Sprintf("append to %q records iteration order", id.Name)
	}
	// Sortability: all appends must target this same object.
	obj := w.objOf(id)
	if w.sortable == nil && w.onlyAppends {
		w.sortable = id
	} else if w.sortable != nil && w.objOf(w.sortable) != obj {
		w.sortable = nil
		w.onlyAppends = false
	}
}

// checkWrite classifies one assignment to lhs with operator tok.
func (w *escapeWalker) checkWrite(lhs ast.Expr, tok token.Token, rhs ast.Expr, ctx walkCtx) {
	if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
		return
	}
	root := w.rootObj(lhs)
	if root == nil || w.inner[root] || w.loopVars[root] {
		return // per-iteration or loop-variable state
	}
	// Distinct-key stores: out[k] = ... touches a different element each
	// iteration, so ordering between iterations cannot matter.
	if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && w.usesLoopVar(ix.Index) {
		return
	}
	switch tok {
	case token.ADD_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		if w.isInteger(lhs) {
			return // commutative, associative integer accumulation
		}
		w.escape(fmt.Sprintf("order-dependent %s to %q", tok, types.ExprString(lhs)))
	case token.INC, token.DEC:
		if w.isInteger(lhs) {
			return
		}
		w.escape(fmt.Sprintf("order-dependent %s of %q", tok, types.ExprString(lhs)))
	case token.ASSIGN, token.DEFINE:
		// Overwriting an outer variable with an iteration-independent
		// value ("found = true") lands on the same state whatever the
		// order.
		if rhs != nil && !w.usesLoopVar(rhs) && !hasCall(rhs) {
			return
		}
		w.escape(fmt.Sprintf("last-writer-wins assignment to %q", types.ExprString(lhs)))
	default:
		w.escape(fmt.Sprintf("order-dependent %s to %q", tok, types.ExprString(lhs)))
	}
}

func (w *escapeWalker) objOf(id *ast.Ident) types.Object {
	if obj := w.info.Uses[id]; obj != nil {
		return obj
	}
	return w.info.Defs[id]
}

// rootObj resolves the outermost base identifier of an lvalue chain
// (x, x.f, x[i], *x, ...).
func (w *escapeWalker) rootObj(e ast.Expr) types.Object {
	switch e := e.(type) {
	case *ast.Ident:
		return w.objOf(e)
	case *ast.SelectorExpr:
		return w.rootObj(e.X)
	case *ast.IndexExpr:
		return w.rootObj(e.X)
	case *ast.StarExpr:
		return w.rootObj(e.X)
	case *ast.ParenExpr:
		return w.rootObj(e.X)
	}
	return nil
}

func (w *escapeWalker) usesLoopVar(e ast.Expr) bool {
	if e == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && w.loopVars[w.info.Uses[id]] {
			found = true
		}
		return !found
	})
	return found
}

func (w *escapeWalker) isInteger(e ast.Expr) bool {
	t := w.info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func hasCall(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.CallExpr); ok {
			found = true
		}
		return !found
	})
	return found
}

// isBuiltin reports whether call invokes the named builtin.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isB := info.Uses[id].(*types.Builtin)
	return isB
}

// followingStmts returns the statements after stmt in its innermost
// enclosing block (empty when not found).
func followingStmts(f *ast.File, stmt ast.Stmt) []ast.Stmt {
	var following []ast.Stmt
	ast.Inspect(f, func(n ast.Node) bool {
		if following != nil {
			return false
		}
		var list []ast.Stmt
		switch n := n.(type) {
		case *ast.BlockStmt:
			list = n.List
		case *ast.CaseClause:
			list = n.Body
		case *ast.CommClause:
			list = n.Body
		default:
			return true
		}
		for i, s := range list {
			if s == stmt {
				following = list[i+1:]
				return false
			}
		}
		return true
	})
	return following
}

// sortedAfter reports whether the appended-to slice is passed to a sort
// before any other use in the statements following the loop.
func (c *checker) sortedAfter(target *ast.Ident, following []ast.Stmt) bool {
	info := c.pass.TypesInfo
	obj := info.Uses[target]
	if obj == nil {
		obj = info.Defs[target]
	}
	if obj == nil {
		return false
	}
	uses := func(n ast.Node) bool {
		found := false
		ast.Inspect(n, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok && info.Uses[id] == obj {
				found = true
			}
			return !found
		})
		return found
	}
	for _, s := range following {
		if !uses(s) {
			continue
		}
		es, ok := s.(*ast.ExprStmt)
		if !ok {
			return false
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return false
		}
		pkg, name := c.calleePkgFunc(call)
		isSort := (pkg == "sort" && (strings.HasPrefix(name, "Sort") || name == "Ints" ||
			name == "Strings" || name == "Float64s" || name == "Slice" ||
			name == "SliceStable" || name == "Stable")) ||
			(pkg == "slices" && strings.HasPrefix(name, "Sort"))
		if !isSort {
			return false
		}
		// The collected slice must be what is being sorted.
		if id, ok := call.Args[0].(*ast.Ident); ok && info.Uses[id] == obj {
			return true
		}
		return false
	}
	return false
}
