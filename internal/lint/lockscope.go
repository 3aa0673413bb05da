package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"

	"repro/internal/lint/analysis"
)

// LockScope enforces the repo's lock discipline with three sub-checks:
//
//  1. held-at-exit: a function must not return, panic, or fall off its
//     end on a path where a sync.Mutex/RWMutex it acquired is still held
//     and no defer releases it (the streaming layer unwinds through
//     panics across goroutines, so a leaked lock deadlocks the machine);
//  2. value copies of mutexes (or structs containing them), which fork
//     the lock state;
//  3. fields annotated `// guarded by <mu>` must only be touched by
//     functions that lock <mu> or are documented `// caller holds <mu>`.
var LockScope = &analysis.Analyzer{
	Name: "lockscope",
	Doc: "flags paths holding a mutex at return/panic without defer, " +
		"mutex value copies, and guarded-field access without the guard",
	Run: runLockScope,
}

func runLockScope(pass *analysis.Pass) error {
	checkCopyLocks(pass)
	checkHeldAtExit(pass)
	checkGuardedFields(pass)
	return nil
}

// ---- sub-check 1: mutex value copies -------------------------------------

func checkCopyLocks(pass *analysis.Pass) {
	info := pass.TypesInfo
	report := func(pos token.Pos, what string, t types.Type) {
		pass.Reportf(pos, "%s copies a value containing %s: the copy's lock state forks from the original; use a pointer", what, t)
	}
	copiedLockType := func(e ast.Expr) types.Type {
		switch ast.Unparen(e).(type) {
		case *ast.Ident, *ast.SelectorExpr, *ast.StarExpr, *ast.IndexExpr:
			t := info.TypeOf(e)
			if lockType(t) != nil {
				return lockType(t)
			}
		}
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				for _, rhs := range st.Rhs {
					if t := copiedLockType(rhs); t != nil {
						report(rhs.Pos(), "assignment", t)
					}
				}
			case *ast.CallExpr:
				for _, arg := range st.Args {
					if t := copiedLockType(arg); t != nil {
						report(arg.Pos(), "call argument", t)
					}
				}
			case *ast.ReturnStmt:
				for _, res := range st.Results {
					if t := copiedLockType(res); t != nil {
						report(res.Pos(), "return", t)
					}
				}
			case *ast.RangeStmt:
				if st.Value != nil {
					if t := lockType(info.TypeOf(st.Value)); t != nil {
						report(st.Value.Pos(), "range value", t)
					}
				}
			}
			return true
		})
	}
}

// lockType returns the sync lock type a value of type t contains (itself,
// or nested through structs/arrays), or nil.
func lockType(t types.Type) types.Type {
	return lockTypeRec(t, make(map[types.Type]bool))
}

func lockTypeRec(t types.Type, seen map[types.Type]bool) types.Type {
	if t == nil || seen[t] {
		return nil
	}
	seen[t] = true
	if isSyncLockNamed(t) {
		return t
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if lt := lockTypeRec(u.Field(i).Type(), seen); lt != nil {
				return lt
			}
		}
	case *types.Array:
		return lockTypeRec(u.Elem(), seen)
	}
	return nil
}

func isSyncLockNamed(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// ---- sub-check 2: held at exit -------------------------------------------

// lockOp classifies a statement's effect on tracked mutexes.
type lockOp struct {
	key     string // receiver expression + read/write mode
	acquire bool
	pos     token.Pos
}

// lockCall decodes expr as a sync Lock/RLock/Unlock/RUnlock call on a
// trackable receiver (an expression without calls). mode "w" pairs
// Lock/Unlock, "r" pairs RLock/RUnlock.
func lockCall(info *types.Info, call *ast.CallExpr) (op lockOp, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return op, false
	}
	fn, _ := info.ObjectOf(sel.Sel).(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return op, false
	}
	var mode string
	switch fn.Name() {
	case "Lock", "Unlock":
		mode = "w"
	case "RLock", "RUnlock":
		mode = "r"
	default:
		return op, false
	}
	if hasCall(sel.X) {
		return op, false // e.g. s.lockFor(name).Lock(): not trackable
	}
	return lockOp{
		key:     types.ExprString(sel.X) + "/" + mode,
		acquire: fn.Name() == "Lock" || fn.Name() == "RLock",
		pos:     call.Pos(),
	}, true
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

// lockState is one control-flow path's view of the mutexes acquired in
// the function under analysis.
type lockState struct {
	held     map[string]token.Pos // key → acquire position
	deferred map[string]bool      // key → a defer will release it
}

func newLockState() *lockState {
	return &lockState{held: map[string]token.Pos{}, deferred: map[string]bool{}}
}

func (s *lockState) clone() *lockState {
	c := newLockState()
	for k, v := range s.held {
		c.held[k] = v
	}
	for k := range s.deferred {
		c.deferred[k] = true
	}
	return c
}

// canon is a canonical rendering for state deduplication.
func (s *lockState) canon() string {
	var parts []string
	for k := range s.held {
		if !s.deferred[k] {
			parts = append(parts, k)
		} else {
			parts = append(parts, k+"+d")
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// maxLockStates bounds path explosion; beyond it paths are merged by
// canonical state, which loses nothing (equal states analyze equally).
const maxLockStates = 64

func dedupStates(states []*lockState) []*lockState {
	seen := make(map[string]bool)
	var out []*lockState
	for _, s := range states {
		key := s.canon()
		if !seen[key] {
			seen[key] = true
			out = append(out, s)
		}
	}
	if len(out) > maxLockStates {
		out = out[:maxLockStates]
	}
	return out
}

func checkHeldAtExit(pass *analysis.Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch d := n.(type) {
			case *ast.FuncDecl:
				body = d.Body
			case *ast.FuncLit:
				body = d.Body
			default:
				return true
			}
			if body == nil {
				return true
			}
			a := &exitAnalysis{pass: pass, reported: map[string]bool{}}
			exits := a.execList(body.List, []*lockState{newLockState()})
			// Falling off the end of the function is an exit too.
			a.checkExit(body.Rbrace, "function exit", exits)
			return true // nested function literals analyzed independently
		})
	}
}

type exitAnalysis struct {
	pass     *analysis.Pass
	reported map[string]bool
}

func (a *exitAnalysis) checkExit(pos token.Pos, what string, states []*lockState) {
	for _, s := range states {
		for key, acq := range s.held {
			if s.deferred[key] {
				continue
			}
			name := key[:strings.LastIndex(key, "/")]
			rkey := fmt.Sprintf("%d/%s/%s", pos, what, key)
			if a.reported[rkey] {
				continue
			}
			a.reported[rkey] = true
			a.pass.Reportf(pos,
				"%s with %s still held (acquired at line %d) and no defer on this path; release it before exiting or use defer %s.Unlock()",
				what, name, a.pass.Fset.Position(acq).Line, name)
		}
	}
}

// execList pushes states through a statement list, returning the states
// that fall out the bottom. Paths ending in return/panic are checked and
// dropped.
func (a *exitAnalysis) execList(stmts []ast.Stmt, in []*lockState) []*lockState {
	states := in
	for _, st := range stmts {
		states = a.exec(st, states)
		if len(states) == 0 {
			break // all paths terminated
		}
		states = dedupStates(states)
	}
	return states
}

func (a *exitAnalysis) exec(stmt ast.Stmt, in []*lockState) []*lockState {
	switch st := stmt.(type) {
	case *ast.BlockStmt:
		return a.execList(st.List, in)
	case *ast.LabeledStmt:
		return a.exec(st.Stmt, in)
	case *ast.ExprStmt:
		call, ok := ast.Unparen(st.X).(*ast.CallExpr)
		if !ok {
			return in
		}
		if op, ok := lockCall(a.pass.TypesInfo, call); ok {
			for _, s := range in {
				if op.acquire {
					s.held[op.key] = op.pos
				} else {
					delete(s.held, op.key)
					delete(s.deferred, op.key)
				}
			}
			return in
		}
		if isPanicCall(a.pass.TypesInfo, call) {
			a.checkExit(st.Pos(), "panic", in)
			return nil
		}
		if isProcessExitCall(a.pass.TypesInfo, call) {
			return nil // process ends; lock state is moot
		}
		return in
	case *ast.DeferStmt:
		a.registerDefer(st.Call, in)
		return in
	case *ast.ReturnStmt:
		a.checkExit(st.Pos(), "return", in)
		return nil
	case *ast.BranchStmt:
		// break/continue/goto end this path's linear analysis without
		// leaving the function; conservative no-check.
		if st.Tok == token.BREAK || st.Tok == token.CONTINUE || st.Tok == token.GOTO {
			return nil
		}
		return in
	case *ast.IfStmt:
		if st.Init != nil {
			in = a.exec(st.Init, in)
		}
		thenIn, elseIn := cloneAll(in), in
		out := a.exec(st.Body, thenIn)
		if st.Else != nil {
			out = append(out, a.exec(st.Else, elseIn)...)
		} else {
			out = append(out, elseIn...)
		}
		return dedupStates(out)
	case *ast.ForStmt:
		if st.Init != nil {
			in = a.exec(st.Init, in)
		}
		out := append(cloneAll(in), a.exec(st.Body, in)...) // zero or one iteration
		return dedupStates(out)
	case *ast.RangeStmt:
		out := append(cloneAll(in), a.exec(st.Body, in)...)
		return dedupStates(out)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		var body *ast.BlockStmt
		var init ast.Stmt
		hasDefault := false
		switch sw := stmt.(type) {
		case *ast.SwitchStmt:
			body, init = sw.Body, sw.Init
		case *ast.TypeSwitchStmt:
			body, init = sw.Body, sw.Init
		case *ast.SelectStmt:
			body = sw.Body
		}
		if init != nil {
			in = a.exec(init, in)
		}
		var out []*lockState
		for _, cc := range body.List {
			var stmts []ast.Stmt
			switch c := cc.(type) {
			case *ast.CaseClause:
				stmts = c.Body
				if c.List == nil {
					hasDefault = true
				}
			case *ast.CommClause:
				stmts = c.Body
				if c.Comm == nil {
					hasDefault = true
				}
			}
			out = append(out, a.execList(stmts, cloneAll(in))...)
		}
		if !hasDefault {
			out = append(out, in...) // no case taken
		}
		return dedupStates(out)
	case *ast.GoStmt:
		return in // runs on another goroutine; out of scope
	default:
		return in
	}
}

// registerDefer marks locks released by a deferred call, including
// defer func() { …; mu.Unlock(); … }() closures.
func (a *exitAnalysis) registerDefer(call *ast.CallExpr, states []*lockState) {
	mark := func(op lockOp) {
		if op.acquire {
			return
		}
		for _, s := range states {
			s.deferred[op.key] = true
		}
	}
	if op, ok := lockCall(a.pass.TypesInfo, call); ok {
		mark(op)
		return
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				if op, ok := lockCall(a.pass.TypesInfo, c); ok {
					mark(op)
				}
			}
			return true
		})
	}
}

func cloneAll(states []*lockState) []*lockState {
	out := make([]*lockState, len(states))
	for i, s := range states {
		out[i] = s.clone()
	}
	return out
}

func isPanicCall(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.ObjectOf(id).(*types.Builtin)
	return ok && b.Name() == "panic"
}

// isProcessExitCall recognizes calls that terminate the process, where
// held locks are irrelevant.
func isProcessExitCall(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch {
	case fn.Pkg().Path() == "os" && fn.Name() == "Exit":
		return true
	case fn.Pkg().Path() == "log" && strings.HasPrefix(fn.Name(), "Fatal"):
		return true
	}
	return false
}

// ---- sub-check 3: guarded-by annotations ---------------------------------

var (
	guardedByRe   = regexp.MustCompile(`guarded by (?:[A-Za-z_]\w*\.)*([A-Za-z_]\w*)`)
	callerHoldsRe = regexp.MustCompile(`[Cc]allers? (?:must )?holds? (?:[A-Za-z_]\w*\.)*([A-Za-z_]\w*)`)
)

// guardedField is one `// guarded by mu` annotation.
type guardedField struct {
	structType types.Type
	field      string
	mu         string
}

func checkGuardedFields(pass *analysis.Pass) {
	info := pass.TypesInfo
	var guards []guardedField
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			def := info.Defs[ts.Name]
			if def == nil {
				return true
			}
			for _, field := range st.Fields.List {
				mu := guardAnnotation(field)
				if mu == "" {
					continue
				}
				for _, name := range field.Names {
					guards = append(guards, guardedField{structType: def.Type(), field: name.Name, mu: mu})
				}
			}
			return true
		})
	}
	if len(guards) == 0 {
		return
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			held := heldGuards(info, fd)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				base := info.TypeOf(sel.X)
				if base == nil {
					return true
				}
				if p, ok := base.Underlying().(*types.Pointer); ok {
					base = p.Elem()
				}
				// In a generic type's methods the base is an instance.
				if n, ok := base.(*types.Named); ok {
					base = n.Origin()
				}
				for _, g := range guards {
					if sel.Sel.Name != g.field || !types.Identical(base, g.structType) {
						continue
					}
					if held[g.mu] {
						continue
					}
					pass.Reportf(sel.Pos(),
						"%s.%s is annotated `guarded by %s` but %s neither locks %s nor is documented `caller holds %s`",
						nameOf(g.structType), g.field, g.mu, fd.Name.Name, g.mu, g.mu)
				}
				return true
			})
		}
	}
}

// guardAnnotation extracts the mutex name of a field's `guarded by`
// comment (doc or trailing line comment).
func guardAnnotation(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedByRe.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// heldGuards returns the set of mutex names a function satisfies: it
// locks them in its body (any mode) or its doc comment declares
// `caller holds <mu>`.
func heldGuards(info *types.Info, fd *ast.FuncDecl) map[string]bool {
	held := make(map[string]bool)
	if fd.Doc != nil {
		for _, m := range callerHoldsRe.FindAllStringSubmatch(fd.Doc.Text(), -1) {
			held[m[1]] = true
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, _ := info.ObjectOf(sel.Sel).(*types.Func)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
			return true
		}
		switch fn.Name() {
		case "Lock", "RLock":
			// The guard's identity is the last component of the receiver
			// chain: s.mu.Lock() satisfies `guarded by mu`.
			expr := types.ExprString(sel.X)
			if i := strings.LastIndex(expr, "."); i >= 0 {
				expr = expr[i+1:]
			}
			held[expr] = true
		}
		return true
	})
	return held
}

func nameOf(t types.Type) string {
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}
