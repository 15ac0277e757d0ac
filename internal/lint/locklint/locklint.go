// Package locklint statically enforces the lock-discipline contract on
// the concurrent subsystems (internal/server, internal/runcache):
// critical sections must stay short and must not leak.
//
// Two rules:
//
//  1. A sync.Mutex/RWMutex must not be held across a blocking operation:
//     file or network I/O, channel sends/receives, selects with no
//     default, time.Sleep, WaitGroup/Cond waits, or a call to a function
//     that (transitively) does any of those. Blocking under a lock turns
//     an O(ns) critical section into one bounded by the disk or the
//     peer, and every other goroutine convoys behind it.
//
//  2. Every path out of a function — return, panic, or falling off the
//     end — must release what it locked, either inline on that path or
//     via a deferred unlock. A branch that returns early with the lock
//     held deadlocks the next caller.
//
// Copies of lock values (value receivers, by-value parameters, x := *p)
// are go vet's copylocks check, which the plain `go vet` run covers.
//
// The held-across analysis is branch-sensitive and conservative in the
// "must hold" direction: lock state is tracked per critical-section key
// (the receiver expression of the Lock call, e.g. "s.mu"), branches are
// merged by intersection, and paths that return or panic drop out of the
// merge. A select with a default case is a poll, not a block, and its
// communication clauses do not individually count as blocking.
//
// Like detlint, the analysis is interprocedural: every function gets a
// BlockFact recording whether it (transitively) blocks, propagated
// bottom-up over the package DAG via the driver's fact store, so a lock
// held across a call into another package is still a finding — with the
// callee chain down to the root blocking operation in the message.
//
// //ce:lock-ok <reason> on the offending line (or alone on the line
// above) exempts a finding. Lock-ordering (lock while holding another
// lock) and contended Lock() calls themselves are out of scope: Lock is
// treated as the uncontended fast path, not a blocking op, or every
// mutex-using helper would poison its callers.
package locklint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/directive"
)

// Analyzer is the locklint pass.
var Analyzer = &analysis.Analyzer{
	Name:      "locklint",
	Doc:       "flags mutexes held across blocking operations and lock leaks on early exits",
	Run:       run,
	FactTypes: []analysis.Fact{new(BlockFact)},
}

// BlockFact is locklint's verdict on one function, exported for
// functions with exported names so that passes over importing packages
// can see through calls made under a lock.
type BlockFact struct {
	// Blocks marks a function that (transitively) performs a blocking
	// operation.
	Blocks bool
	// Why describes the root blocking operation ("call to os.WriteFile").
	Why string
	// Trail is the call chain from this function down to the blocking
	// operation, starting with this function's own name.
	Trail []string
}

// AFact marks BlockFact as a fact type.
func (*BlockFact) AFact() {}

// chain renders the fact for a finding message:
// "Save → flush: call to os.WriteFile".
func (f *BlockFact) chain() string {
	return strings.Join(f.Trail, " → ") + ": " + f.Why
}

// callSite is one statically-resolved call inside a function.
type callSite struct {
	pos    token.Pos
	callee *types.Func
}

// lockFn is the per-function fact-collection state.
type lockFn struct {
	obj   *types.Func
	why   string // first direct blocking operation, "" if none
	calls []callSite
	fact  *BlockFact
}

type passState struct {
	pass  *analysis.Pass
	byObj map[*types.Func]*lockFn
	fns   []*lockFn
}

func run(pass *analysis.Pass) (any, error) {
	st := &passState{pass: pass, byObj: make(map[*types.Func]*lockFn)}

	type declWork struct {
		fd  *ast.FuncDecl
		idx *directive.Index
	}
	var work []declWork
	for _, f := range pass.Files {
		idx := directive.NewIndex(pass.Fset, f, directive.LockOK)
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fi := st.collect(fd, obj)
			st.fns = append(st.fns, fi)
			st.byObj[obj] = fi
			work = append(work, declWork{fd, idx})
		}
	}

	// Seed each function's fact from its first direct blocking op, then
	// propagate through calls to a fixpoint. Call order is source order,
	// so the recorded trail is deterministic.
	for _, fi := range st.fns {
		fi.fact = &BlockFact{}
		if fi.why != "" {
			fi.fact.Blocks = true
			fi.fact.Why = fi.why
			fi.fact.Trail = []string{fi.obj.Name()}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range st.fns {
			if fi.fact.Blocks {
				continue
			}
			for _, cs := range fi.calls {
				cf := st.calleeFact(cs.callee)
				if cf == nil || !cf.Blocks {
					continue
				}
				fi.fact.Blocks = true
				fi.fact.Why = cf.Why
				fi.fact.Trail = append([]string{fi.obj.Name()}, cf.Trail...)
				changed = true
				break
			}
		}
	}

	if pass.ExportObjectFact != nil {
		for _, fi := range st.fns {
			if fi.fact.Blocks && ast.IsExported(fi.obj.Name()) {
				pass.ExportObjectFact(fi.obj, fi.fact)
			}
		}
	}

	for _, d := range work {
		w := newWalker(st, d.idx)
		w.block(d.fd.Body.List)
		if !w.terminated {
			w.exitLocked(d.fd.Body.Rbrace, "function exit")
		}
		// Function literals run with their own lock state: locks they
		// acquire are theirs, and locks of the enclosing function are not
		// provably held when the literal eventually runs.
		ast.Inspect(d.fd.Body, func(n ast.Node) bool {
			fl, ok := n.(*ast.FuncLit)
			if !ok {
				return true
			}
			lw := newWalker(st, d.idx)
			lw.block(fl.Body.List)
			if !lw.terminated {
				lw.exitLocked(fl.Body.Rbrace, "function exit")
			}
			return true
		})
	}
	return nil, nil
}

// calleeFact resolves a callee's BlockFact: same-package functions from
// this pass, imported ones from the driver's fact store.
func (st *passState) calleeFact(callee *types.Func) *BlockFact {
	if fi, ok := st.byObj[callee]; ok {
		return fi.fact
	}
	if st.pass.ImportObjectFact == nil {
		return nil
	}
	var f BlockFact
	if st.pass.ImportObjectFact(callee, &f) {
		return &f
	}
	return nil
}

// collect records a function's first direct blocking operation and its
// statically-resolved calls, for fact propagation. Function literals are
// skipped (a returned closure does not block its maker), as are `go`
// statements (the goroutine blocks, not the caller) and communication
// clauses of selects that have a default (the select polls).
func (st *passState) collect(fd *ast.FuncDecl, obj *types.Func) *lockFn {
	fi := &lockFn{obj: obj}
	nonblocking := pollOps(fd.Body)
	record := func(why string) {
		if fi.why == "" {
			fi.why = why
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.SendStmt:
			if !nonblocking[n] {
				record("channel send")
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !nonblocking[n] {
				record("channel receive")
			}
		case *ast.SelectStmt:
			if !hasDefault(n) {
				record("select with no default")
			}
		case *ast.CallExpr:
			if why, ok := st.blockingCall(n); ok {
				record("call to " + why)
			} else if callee := staticCallee(st.pass, n); callee != nil {
				fi.calls = append(fi.calls, callSite{pos: n.Pos(), callee: callee})
			}
		}
		return true
	})
	return fi
}

// pollOps returns the communication operations that belong to a
// select-with-default: they poll rather than block.
func pollOps(body ast.Node) map[ast.Node]bool {
	ops := make(map[ast.Node]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok || !hasDefault(sel) {
			return true
		}
		for _, cs := range sel.Body.List {
			cc, ok := cs.(*ast.CommClause)
			if !ok || cc.Comm == nil {
				continue
			}
			switch comm := cc.Comm.(type) {
			case *ast.SendStmt:
				ops[comm] = true
			case *ast.ExprStmt:
				ops[ast.Unparen(comm.X)] = true
			case *ast.AssignStmt:
				for _, r := range comm.Rhs {
					ops[ast.Unparen(r)] = true
				}
			}
		}
		return true
	})
	return ops
}

// hasDefault reports whether a select has a default clause.
func hasDefault(sel *ast.SelectStmt) bool {
	for _, cs := range sel.Body.List {
		if cc, ok := cs.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// staticCallee resolves a call to its target function when the target
// is known statically; dynamic calls resolve to nil.
func staticCallee(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := pass.TypesInfo.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
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

// blockingCall classifies a call as a known-blocking standard-library
// operation and returns its label. Package functions are matched against
// curated lists; methods are classified by the package that declares
// them (any method on an os, net, net/http, os/exec, bufio, or io type
// touches a descriptor or a peer — an io interface method may be a
// bytes.Buffer underneath, but the static type promises I/O, so a
// deliberate in-memory use hatches with a reason).
func (st *passState) blockingCall(call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if pn := pkgNameOf(st.pass.TypesInfo, sel.X); pn != nil {
		path, name := pn.Imported().Path(), sel.Sel.Name
		if blockingPkgFunc(path, name) {
			return pn.Imported().Name() + "." + name, true
		}
		return "", false
	}
	fn, ok := st.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	switch fn.Pkg().Path() {
	case "os", "net", "net/http", "os/exec", "bufio", "io":
		return fn.FullName(), true
	case "sync":
		if fn.Name() == "Wait" {
			return fn.FullName(), true
		}
	}
	return "", false
}

// blockingPkgFunc reports whether a package-level stdlib function blocks.
func blockingPkgFunc(path, name string) bool {
	switch path {
	case "time":
		return name == "Sleep"
	case "os":
		return osBlocking[name]
	case "io":
		switch name {
		case "Copy", "CopyN", "CopyBuffer", "ReadAll", "ReadFull", "ReadAtLeast", "WriteString":
			return true
		}
	case "io/ioutil", "log":
		return true
	case "net/http":
		switch name {
		case "Get", "Post", "Head", "PostForm", "ListenAndServe", "ListenAndServeTLS", "Serve", "ServeTLS":
			return true
		}
	case "net":
		for _, p := range []string{"Dial", "Listen", "Lookup", "Resolve"} {
			if strings.HasPrefix(name, p) {
				return true
			}
		}
	case "os/exec":
		return name == "LookPath"
	case "fmt":
		for _, p := range []string{"Print", "Fprint", "Scan", "Fscan"} {
			if strings.HasPrefix(name, p) {
				return true
			}
		}
	}
	return false
}

// osBlocking lists the os package functions that reach the filesystem or
// kernel; pure helpers (IsNotExist, Getenv, Getpid, ...) are absent.
var osBlocking = map[string]bool{
	"Chdir": true, "Chmod": true, "Chown": true, "Chtimes": true,
	"Create": true, "CreateTemp": true, "Getwd": true, "Hostname": true,
	"Link": true, "Lstat": true, "Mkdir": true, "MkdirAll": true,
	"MkdirTemp": true, "Open": true, "OpenFile": true, "Pipe": true,
	"ReadDir": true, "ReadFile": true, "Readlink": true, "Remove": true,
	"RemoveAll": true, "Rename": true, "Stat": true, "StartProcess": true,
	"Symlink": true, "Truncate": true, "WriteFile": true,
}

// pkgNameOf resolves an expression to the package it names, if any.
func pkgNameOf(info *types.Info, e ast.Expr) *types.PkgName {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	pn, _ := info.Uses[id].(*types.PkgName)
	return pn
}

// walker tracks must-held lock state through one function body.
type walker struct {
	st  *passState
	idx *directive.Index
	// held maps a critical-section key (the rendered receiver expression
	// of the Lock call) to the acquire position.
	held map[string]token.Pos
	// deferred records keys with a registered deferred unlock. Shared
	// across branch clones: defers are function-scoped, and treating a
	// conditionally-registered defer as unconditional errs toward
	// silence, not noise.
	deferred map[string]bool
	// terminated is set after a return or panic: the path contributes
	// nothing to merges and the rest of the block is unreachable.
	terminated bool
}

func newWalker(st *passState, idx *directive.Index) *walker {
	return &walker{st: st, idx: idx, held: make(map[string]token.Pos), deferred: make(map[string]bool)}
}

func (w *walker) clone() *walker {
	held := make(map[string]token.Pos, len(w.held))
	for k, v := range w.held {
		held[k] = v
	}
	return &walker{st: w.st, idx: w.idx, held: held, deferred: w.deferred}
}

func (w *walker) block(list []ast.Stmt) {
	for _, s := range list {
		if w.terminated {
			return
		}
		w.stmt(s)
	}
}

func (w *walker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if key, locks, ok := lockOp(w.st.pass.TypesInfo, s.X); ok {
			if locks {
				w.held[key] = s.Pos()
			} else {
				delete(w.held, key)
			}
			return
		}
		w.ops(s.X)
		if isPanic(w.st.pass.TypesInfo, s.X) {
			w.exitLocked(s.Pos(), "panic")
			w.terminated = true
		}
	case *ast.DeferStmt:
		for _, key := range deferredUnlocks(w.st.pass.TypesInfo, s.Call) {
			w.deferred[key] = true
		}
		for _, a := range s.Call.Args {
			w.ops(a)
		}
	case *ast.GoStmt:
		// The goroutine blocks on its own time; only argument evaluation
		// happens under the current lock state.
		for _, a := range s.Call.Args {
			w.ops(a)
		}
	case *ast.ReturnStmt:
		w.ops(s)
		w.exitLocked(s.Pos(), "return")
		w.terminated = true
	case *ast.BlockStmt:
		w.block(s.List)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.ops(s.Cond)
		then := w.clone()
		then.block(s.Body.List)
		els := w.clone()
		if s.Else != nil {
			els.stmt(s.Else)
		}
		w.merge(then, els)
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		if s.Cond != nil {
			w.ops(s.Cond)
		}
		body := w.clone()
		body.block(s.Body.List)
		if s.Post != nil && !body.terminated {
			body.stmt(s.Post)
		}
		if !body.terminated {
			w.held = intersectAll([]map[string]token.Pos{w.held, body.held})
		}
	case *ast.RangeStmt:
		w.ops(s.X)
		body := w.clone()
		body.block(s.Body.List)
		if !body.terminated {
			w.held = intersectAll([]map[string]token.Pos{w.held, body.held})
		}
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		if s.Tag != nil {
			w.ops(s.Tag)
		}
		w.cases(s.Body.List, switchHasDefault(s.Body))
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.cases(s.Body.List, switchHasDefault(s.Body))
	case *ast.SelectStmt:
		if !hasDefault(s) {
			w.op(s.Pos(), "select with no default")
		}
		var outs []map[string]token.Pos
		for _, cs := range s.Body.List {
			cc, ok := cs.(*ast.CommClause)
			if !ok {
				continue
			}
			cw := w.clone()
			cw.block(cc.Body)
			if !cw.terminated {
				outs = append(outs, cw.held)
			}
		}
		if len(outs) > 0 {
			w.held = intersectAll(outs)
		} else if len(s.Body.List) > 0 {
			w.terminated = true
		}
	case *ast.SendStmt, *ast.AssignStmt, *ast.IncDecStmt, *ast.DeclStmt:
		w.ops(s)
	}
}

// merge joins two branch walkers: paths that returned drop out; if both
// returned, what follows is unreachable.
func (w *walker) merge(a, b *walker) {
	var outs []map[string]token.Pos
	if !a.terminated {
		outs = append(outs, a.held)
	}
	if !b.terminated {
		outs = append(outs, b.held)
	}
	if len(outs) == 0 {
		w.terminated = true
		return
	}
	w.held = intersectAll(outs)
}

// cases walks each case clause on a clone and intersects the survivors;
// with no default clause the fall-past path keeps the entry state.
func (w *walker) cases(list []ast.Stmt, hasDef bool) {
	var outs []map[string]token.Pos
	for _, cs := range list {
		cc, ok := cs.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			w.ops(e)
		}
		cw := w.clone()
		cw.block(cc.Body)
		if !cw.terminated {
			outs = append(outs, cw.held)
		}
	}
	if !hasDef {
		outs = append(outs, w.held)
	}
	if len(outs) == 0 {
		w.terminated = true
		return
	}
	w.held = intersectAll(outs)
}

func switchHasDefault(body *ast.BlockStmt) bool {
	for _, cs := range body.List {
		if cc, ok := cs.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}

// ops scans a statement or expression for blocking operations and
// reports each one performed while a lock is held. Nested function
// literals are skipped — they run later, under their own state.
func (w *walker) ops(n ast.Node) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			w.op(m.Arrow, "channel send")
		case *ast.UnaryExpr:
			if m.Op == token.ARROW {
				w.op(m.OpPos, "channel receive")
			}
		case *ast.CallExpr:
			if why, ok := w.st.blockingCall(m); ok {
				w.op(m.Pos(), "call to "+why)
			} else if callee := staticCallee(w.st.pass, m); callee != nil {
				if cf := w.st.calleeFact(callee); cf != nil && cf.Blocks {
					w.op(m.Pos(), fmt.Sprintf("call to %s (blocks: %s)",
						calleeLabel(w.st.pass.Pkg, callee), cf.chain()))
				}
			}
		}
		return true
	})
}

// op reports one blocking operation for every lock currently held,
// unless an //ce:lock-ok hatch covers the site.
func (w *walker) op(pos token.Pos, desc string) {
	if len(w.held) == 0 {
		return
	}
	if _, ok := w.idx.Covering(pos); ok {
		return
	}
	for _, key := range sortedKeys(w.held) {
		w.st.pass.Report(analysis.Diagnostic{
			Pos:      pos,
			Category: "lock-blocking",
			Message: fmt.Sprintf("mutex %s held across %s; shrink the critical section or add //ce:lock-ok <reason>",
				key, desc),
		})
	}
}

// exitLocked reports locks still held (and not deferred-unlocked) at a
// path out of the function.
func (w *walker) exitLocked(pos token.Pos, kind string) {
	for _, key := range sortedKeys(w.held) {
		if w.deferred[key] {
			continue
		}
		if _, ok := w.idx.Covering(pos); ok {
			continue
		}
		w.st.pass.Report(analysis.Diagnostic{
			Pos:      pos,
			Category: "lock-leak",
			Message: fmt.Sprintf("%s leaves mutex %s locked; defer the unlock or release it on this path",
				kind, key),
		})
	}
}

func sortedKeys(m map[string]token.Pos) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func intersectAll(ms []map[string]token.Pos) map[string]token.Pos {
	out := make(map[string]token.Pos)
	for k, v := range ms[0] {
		in := true
		for _, m := range ms[1:] {
			if _, ok := m[k]; !ok {
				in = false
				break
			}
		}
		if in {
			out[k] = v
		}
	}
	return out
}

// lockOp classifies an expression statement as mu.Lock/RLock (locks
// true) or mu.Unlock/RUnlock (locks false) on a sync mutex, returning
// the critical-section key — the rendered receiver expression.
func lockOp(info *types.Info, e ast.Expr) (key string, locks, ok bool) {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall {
		return "", false, false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	fn, isFn := info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", false, false
	}
	switch fn.Name() {
	case "Lock", "RLock":
		return types.ExprString(ast.Unparen(sel.X)), true, true
	case "Unlock", "RUnlock":
		return types.ExprString(ast.Unparen(sel.X)), false, true
	}
	return "", false, false
}

// deferredUnlocks returns the keys a deferred call releases: a direct
// `defer mu.Unlock()` or any unlock inside a deferred func literal.
func deferredUnlocks(info *types.Info, call *ast.CallExpr) []string {
	if key, locks, ok := lockOp(info, call); ok && !locks {
		return []string{key}
	}
	fl, ok := ast.Unparen(call.Fun).(*ast.FuncLit)
	if !ok {
		return nil
	}
	var keys []string
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if inner, ok := n.(*ast.CallExpr); ok {
			if key, locks, ok := lockOp(info, inner); ok && !locks {
				keys = append(keys, key)
			}
		}
		return true
	})
	return keys
}

// isPanic reports whether the expression is a call to the panic builtin.
func isPanic(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}
