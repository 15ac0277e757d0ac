// Package errlint statically enforces the error-classification contract
// on the persistence boundary (internal/runcache, internal/trace): an
// error that originates in the environment — file and network I/O,
// syscalls — must not escape a //ce:classify-errors package raw. It
// must be wrapped (%w) into a classified sentinel (errclass.ErrTransient
// / errclass.ErrCorrupt, or any package-level Err* sentinel that itself
// classifies), or passed through a classifier function, or hatched with
// //ce:err-ok <reason>.
//
// The contract exists because runcache.Do memoizes deterministic errors
// forever — correct for simulator validation failures, disastrous for a
// momentary ENOSPC or a torn cache file that a retry (or a recapture)
// would repair. Classification is what lets Do tell the cases apart, so
// an unclassified escape is a latent stuck-key bug.
//
// What counts as classified at a return site:
//
//   - nil, and anything not typed error.
//   - a call to a function marked //ce:classifier (errclass.Transient,
//     errclass.Corrupt, runcache.Transient, ...).
//   - fmt.Errorf whose format verbs include %w and whose arguments
//     include a package-level Err* sentinel or a classifier call.
//   - any value the analysis cannot trace to an environment source
//     (conservative silence: errors.New, computed errors, parameters).
//
// What counts as an environment source: calls into os, io, io/fs,
// io/ioutil, bufio, net and syscall (package functions and methods on
// their types), and — interprocedurally — calls to any function whose
// ErrFact says it may return an unclassified environment error. Facts
// propagate bottom-up over the package DAG via the driver's fact store,
// so a marked package calling an unmarked helper in another package
// still sees the raw os.ReadFile at the bottom, with the callee chain
// in the message. Variable flow is tracked per function ("dataflow
// lite"): err := os.ReadFile(...); return err is a finding, and a
// variable that is ever re-assigned a classified value is trusted
// everywhere (the analysis under-reports rather than second-guessing
// branch order).
package errlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/directive"
)

// Analyzer is the errlint pass.
var Analyzer = &analysis.Analyzer{
	Name:      "errlint",
	Doc:       "flags unclassified environment errors escaping //ce:classify-errors packages",
	Run:       run,
	FactTypes: []analysis.Fact{new(ErrFact)},
}

// ErrFact is errlint's verdict on one function, exported for functions
// with exported names.
type ErrFact struct {
	// Classifier marks a //ce:classifier function: its result is
	// classified by assertion.
	Classifier bool
	// Env marks a function that may return an unclassified environment
	// error.
	Env bool
	// Why names the root environment source ("os.ReadFile").
	Why string
	// Trail is the call chain from this function down to the source,
	// starting with this function's own name.
	Trail []string
}

// AFact marks ErrFact as a fact type.
func (*ErrFact) AFact() {}

// chain renders the fact for a finding message: "Load → read: os.ReadFile".
func (f *ErrFact) chain() string {
	return strings.Join(f.Trail, " → ") + ": " + f.Why
}

// retKind classifies one error-typed return expression.
type retKind int

const (
	retClean retKind = iota
	retEnv           // raw environment error, desc names the source
	retCall          // verdict depends on the callee's fact
	retWrap          // fmt.Errorf over an env source without a sentinel
)

// retSite is one error-typed return expression.
type retSite struct {
	pos     token.Pos
	kind    retKind
	desc    string      // retEnv/retWrap: the environment source
	callee  *types.Func // retCall: the function whose fact decides
	hatched bool
}

// efn is the per-function analysis state.
type efn struct {
	obj        *types.Func
	classifier bool
	rets       []retSite
	fact       *ErrFact
}

type passState struct {
	pass  *analysis.Pass
	byObj map[*types.Func]*efn
	fns   []*efn
}

func run(pass *analysis.Pass) (any, error) {
	st := &passState{pass: pass, byObj: make(map[*types.Func]*efn)}
	marked := directive.PackageMarked(pass.Files, directive.ClassifyErrors)

	// First pass: register declarations so classifier marks on
	// same-package callees are visible while scanning bodies.
	type declWork struct {
		fd  *ast.FuncDecl
		fi  *efn
		idx *directive.Index
	}
	var work []declWork
	for _, f := range pass.Files {
		idx := directive.NewIndex(pass.Fset, f, directive.ErrOK)
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fi := &efn{obj: obj, classifier: directive.FuncMarked(fd, directive.Classifier)}
			st.fns = append(st.fns, fi)
			st.byObj[obj] = fi
			work = append(work, declWork{fd, fi, idx})
		}
	}
	for _, d := range work {
		st.scan(d.fd, d.fi, d.idx)
	}

	// Seed facts from direct environment returns, then propagate through
	// retCall sites to a fixpoint (source order, deterministic trails).
	for _, fi := range st.fns {
		fi.fact = &ErrFact{Classifier: fi.classifier}
		if fi.classifier {
			continue
		}
		for _, r := range fi.rets {
			if r.hatched || r.kind != retEnv && r.kind != retWrap {
				continue
			}
			fi.fact.Env = true
			fi.fact.Why = r.desc
			fi.fact.Trail = []string{fi.obj.Name()}
			break
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range st.fns {
			if fi.fact.Env || fi.fact.Classifier {
				continue
			}
			for _, r := range fi.rets {
				if r.kind != retCall || r.hatched {
					continue
				}
				cf := st.calleeFact(r.callee)
				if cf == nil || cf.Classifier || !cf.Env {
					continue
				}
				fi.fact.Env = true
				fi.fact.Why = cf.Why
				fi.fact.Trail = append([]string{fi.obj.Name()}, cf.Trail...)
				changed = true
				break
			}
		}
	}

	if pass.ExportObjectFact != nil {
		for _, fi := range st.fns {
			if (fi.fact.Env || fi.fact.Classifier) && ast.IsExported(fi.obj.Name()) {
				pass.ExportObjectFact(fi.obj, fi.fact)
			}
		}
	}

	if !marked {
		return nil, nil
	}
	for _, fi := range st.fns {
		for _, r := range fi.rets {
			if r.hatched {
				continue
			}
			switch r.kind {
			case retEnv:
				pass.Report(analysis.Diagnostic{
					Pos:      r.pos,
					Category: "err-raw",
					Message: fmt.Sprintf("unclassified environment error (%s) escapes; wrap it with errclass.Transient/Corrupt or a %%w Err* sentinel, or add //ce:err-ok <reason>",
						r.desc),
				})
			case retWrap:
				pass.Report(analysis.Diagnostic{
					Pos:      r.pos,
					Category: "err-wrap",
					Message: fmt.Sprintf("fmt.Errorf wraps an environment error (%s) without a classified sentinel; use %%w with ErrTransient/ErrCorrupt or a classifier, or add //ce:err-ok <reason>",
						r.desc),
				})
			case retCall:
				cf := st.calleeFact(r.callee)
				if cf == nil || cf.Classifier || !cf.Env {
					continue
				}
				pass.Report(analysis.Diagnostic{
					Pos:      r.pos,
					Category: "err-call",
					Message: fmt.Sprintf("call to %s may return an unclassified environment error (%s); classify it at this boundary or add //ce:err-ok <reason>",
						calleeLabel(pass.Pkg, r.callee), cf.chain()),
				})
			}
		}
	}
	return nil, nil
}

// calleeFact resolves a callee's ErrFact: same-package functions from
// this pass, imported ones from the driver's fact store.
func (st *passState) calleeFact(callee *types.Func) *ErrFact {
	if fi, ok := st.byObj[callee]; ok {
		return fi.fact
	}
	if st.pass.ImportObjectFact == nil {
		return nil
	}
	var f ErrFact
	if st.pass.ImportObjectFact(callee, &f) {
		return &f
	}
	return nil
}

// scan walks one function body collecting variable taint and return
// sites. Function literals are skipped: their returns are not the
// enclosing function's.
func (st *passState) scan(fd *ast.FuncDecl, fi *efn, idx *directive.Index) {
	// taintEnv / taintCall record how an error variable was last sourced
	// (flow-insensitively); classified marks variables that were ever
	// assigned a classified value and are then trusted everywhere.
	taintEnv := make(map[types.Object]string)
	taintCall := make(map[types.Object]*types.Func)
	classified := make(map[types.Object]bool)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 {
				return true
			}
			r := st.classifyExpr(n.Rhs[0], taintEnv, taintCall, classified)
			for _, l := range n.Lhs {
				id, ok := ast.Unparen(l).(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := st.pass.TypesInfo.Defs[id]
				if obj == nil {
					obj = st.pass.TypesInfo.Uses[id]
				}
				if obj == nil || !isErrorType(obj.Type()) {
					continue
				}
				switch r.kind {
				case retEnv, retWrap:
					taintEnv[obj] = r.desc
				case retCall:
					taintCall[obj] = r.callee
				case retClean:
					if isClassifiedExpr(n.Rhs[0], st) {
						classified[obj] = true
					}
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				t := st.pass.TypesInfo.TypeOf(res)
				if t == nil {
					continue
				}
				if !isErrorType(t) && !tupleWithError(t) {
					continue
				}
				r := st.classifyExpr(res, taintEnv, taintCall, classified)
				if r.kind == retClean {
					continue
				}
				r.pos = res.Pos()
				_, r.hatched = idx.Covering(res.Pos())
				fi.rets = append(fi.rets, r)
			}
		}
		return true
	})
}

// classifyExpr decides how one error-valued expression is sourced.
func (st *passState) classifyExpr(e ast.Expr, taintEnv map[types.Object]string, taintCall map[types.Object]*types.Func, classified map[types.Object]bool) retSite {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.Ident:
		obj := st.pass.TypesInfo.Uses[e]
		if obj == nil {
			return retSite{kind: retClean}
		}
		if classified[obj] {
			return retSite{kind: retClean}
		}
		if desc, ok := taintEnv[obj]; ok {
			return retSite{kind: retEnv, desc: desc}
		}
		if callee, ok := taintCall[obj]; ok {
			return retSite{kind: retCall, callee: callee}
		}
		return retSite{kind: retClean}
	case *ast.CallExpr:
		if desc, ok := st.envCall(e); ok {
			return retSite{kind: retEnv, desc: desc}
		}
		if st.isClassifierCall(e) {
			return retSite{kind: retClean}
		}
		if st.isErrorf(e) {
			return st.classifyErrorf(e, taintEnv, taintCall, classified)
		}
		if callee := staticCallee(st.pass, e); callee != nil {
			return retSite{kind: retCall, callee: callee}
		}
		return retSite{kind: retClean}
	}
	return retSite{kind: retClean}
}

// classifyErrorf inspects a fmt.Errorf call: with a %w verb and a
// sentinel or classifier argument it is classified; wrapping a tainted
// value without one is a retWrap finding.
func (st *passState) classifyErrorf(call *ast.CallExpr, taintEnv map[types.Object]string, taintCall map[types.Object]*types.Func, classified map[types.Object]bool) retSite {
	wraps := false
	if len(call.Args) > 0 {
		if lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit); ok && lit.Kind == token.STRING {
			wraps = strings.Contains(lit.Value, "%w")
		}
	}
	for _, a := range call.Args[min(1, len(call.Args)):] {
		if wraps && (st.isSentinel(a) || st.isClassifierCall(asCall(a))) {
			return retSite{kind: retClean}
		}
	}
	// Not classified: does it carry an environment error?
	for _, a := range call.Args[min(1, len(call.Args)):] {
		inner := st.classifyExpr(a, taintEnv, taintCall, classified)
		switch inner.kind {
		case retEnv, retWrap:
			return retSite{kind: retWrap, desc: inner.desc}
		case retCall:
			return retSite{kind: retCall, callee: inner.callee}
		}
	}
	return retSite{kind: retClean}
}

// isClassifiedExpr reports whether an assignment RHS is a classified
// value: a classifier call, or a sentinel-bearing fmt.Errorf.
func isClassifiedExpr(e ast.Expr, st *passState) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	if st.isClassifierCall(call) {
		return true
	}
	if !st.isErrorf(call) || len(call.Args) == 0 {
		return false
	}
	lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING || !strings.Contains(lit.Value, "%w") {
		return false
	}
	for _, a := range call.Args[1:] {
		if st.isSentinel(a) || st.isClassifierCall(asCall(a)) {
			return true
		}
	}
	return false
}

func asCall(e ast.Expr) *ast.CallExpr {
	call, _ := ast.Unparen(e).(*ast.CallExpr)
	return call
}

// isSentinel reports whether the expression denotes a package-level
// error variable whose name starts with Err.
func (st *passState) isSentinel(e ast.Expr) bool {
	var id *ast.Ident
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return false
	}
	v, ok := st.pass.TypesInfo.Uses[id].(*types.Var)
	return ok && strings.HasPrefix(v.Name(), "Err") && isErrorType(v.Type()) &&
		v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// isClassifierCall reports whether the call targets a //ce:classifier
// function (same-package mark or imported fact).
func (st *passState) isClassifierCall(call *ast.CallExpr) bool {
	if call == nil {
		return false
	}
	callee := staticCallee(st.pass, call)
	if callee == nil {
		return false
	}
	if fi, ok := st.byObj[callee]; ok {
		return fi.classifier
	}
	if st.pass.ImportObjectFact != nil {
		var f ErrFact
		if st.pass.ImportObjectFact(callee, &f) {
			return f.Classifier
		}
	}
	return false
}

// isErrorf reports whether the call is fmt.Errorf.
func (st *passState) isErrorf(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Errorf" {
		return false
	}
	pn := pkgNameOf(st.pass.TypesInfo, sel.X)
	return pn != nil && pn.Imported().Path() == "fmt"
}

// envCall classifies a call as an environment source and names it.
func (st *passState) envCall(call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if pn := pkgNameOf(st.pass.TypesInfo, sel.X); pn != nil {
		path := pn.Imported().Path()
		if envPkgs[path] {
			return pn.Imported().Name() + "." + sel.Sel.Name, true
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
	if envPkgs[fn.Pkg().Path()] {
		return fn.FullName(), true
	}
	return "", false
}

// envPkgs are the stdlib packages whose errors are environmental by
// construction.
var envPkgs = map[string]bool{
	"os": true, "io": true, "io/fs": true, "io/ioutil": true,
	"bufio": true, "net": true, "syscall": true,
}

// staticCallee resolves a call to its target function when known
// statically.
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

// pkgNameOf resolves an expression to the package it names, if any.
func pkgNameOf(info *types.Info, e ast.Expr) *types.PkgName {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	pn, _ := info.Uses[id].(*types.PkgName)
	return pn
}

// isErrorType reports whether t is exactly the universe error type.
func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// tupleWithError reports whether a multi-value call result includes an
// error (return f() forwarding a (T, error) pair).
func tupleWithError(t types.Type) bool {
	tup, ok := t.(*types.Tuple)
	if !ok {
		return false
	}
	for i := 0; i < tup.Len(); i++ {
		if isErrorType(tup.At(i).Type()) {
			return true
		}
	}
	return false
}
