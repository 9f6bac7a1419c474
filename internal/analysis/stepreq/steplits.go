package stepreq

// Locating step bodies: function literals in kernel.StepFn position.

import (
	"go/ast"
	"go/types"

	"lrp/internal/analysis/framework"
)

// stepLiterals collects every function literal in StepFn position in f —
// passed to a StepFn parameter, returned from a StepFn result slot, or
// assigned to a StepFn variable or field. Nested function literals inside
// a step body (timer callbacks and the like) run in engine context and
// are not step bodies unless they too sit in StepFn position.
func stepLiterals(pass *framework.Pass, f *ast.File) []*ast.FuncLit {
	var out []*ast.FuncLit
	seen := map[*ast.FuncLit]bool{}
	add := func(e ast.Expr) {
		if lit, ok := e.(*ast.FuncLit); ok && !seen[lit] {
			seen[lit] = true
			out = append(out, lit)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			sig := calleeSignature(pass, n)
			if sig == nil {
				return true
			}
			for i, arg := range n.Args {
				if isStepFn(paramType(sig, i)) {
					add(arg)
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i < len(n.Rhs) && isStepFn(pass.TypesInfo.TypeOf(lhs)) {
					add(n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if obj := pass.TypesInfo.Defs[name]; obj != nil && isStepFn(obj.Type()) && i < len(n.Values) {
					add(n.Values[i])
				}
			}
		case *ast.KeyValueExpr:
			if isStepFn(pass.TypesInfo.TypeOf(n.Value)) {
				// Composite-literal fields carry the field's type only when
				// the literal converts; fall back on the key's object type.
				add(n.Value)
			}
			if id, ok := n.Key.(*ast.Ident); ok {
				if obj := pass.TypesInfo.Uses[id]; obj != nil && isStepFn(obj.Type()) {
					add(n.Value)
				}
			}
		case *ast.FuncDecl:
			collectReturns(pass, declSignature(pass, n), n.Body, add)
		case *ast.FuncLit:
			collectReturns(pass, litSignature(pass, n), n.Body, add)
		}
		return true
	})
	return out
}

// collectReturns marks function literals returned in a StepFn result slot
// of the enclosing function, without descending into nested literals
// (those have their own signatures and their own Inspect visit).
func collectReturns(pass *framework.Pass, sig *types.Signature, body *ast.BlockStmt, add func(ast.Expr)) {
	if sig == nil || body == nil {
		return
	}
	idx := stepResultIndexes(sig)
	if len(idx) == 0 {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			for _, i := range idx {
				if i < len(n.Results) {
					add(n.Results[i])
				}
			}
		}
		return true
	})
}

// calleeSignature resolves the signature of a call's callee, nil for type
// conversions and non-function callees.
func calleeSignature(pass *framework.Pass, call *ast.CallExpr) *types.Signature {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || tv.IsType() {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

func declSignature(pass *framework.Pass, d *ast.FuncDecl) *types.Signature {
	obj := pass.TypesInfo.Defs[d.Name]
	if obj == nil {
		return nil
	}
	sig, _ := obj.Type().(*types.Signature)
	return sig
}

func litSignature(pass *framework.Pass, l *ast.FuncLit) *types.Signature {
	tv, ok := pass.TypesInfo.Types[l]
	if !ok {
		return nil
	}
	sig, _ := tv.Type.(*types.Signature)
	return sig
}

// paramType returns the type of parameter i, folding variadic tails.
func paramType(sig *types.Signature, i int) types.Type {
	n := sig.Params().Len()
	if n == 0 {
		return nil
	}
	if i >= n {
		if !sig.Variadic() {
			return nil
		}
		i = n - 1
	}
	t := sig.Params().At(i).Type()
	if sig.Variadic() && i == n-1 {
		if sl, ok := t.(*types.Slice); ok {
			return sl.Elem()
		}
	}
	return t
}

// stepResultIndexes lists the result slots of type kernel.StepFn.
func stepResultIndexes(sig *types.Signature) []int {
	var out []int
	for i := 0; i < sig.Results().Len(); i++ {
		if isStepFn(sig.Results().At(i).Type()) {
			out = append(out, i)
		}
	}
	return out
}

// isStepFn reports whether t is the named type lrp/internal/kernel.StepFn.
func isStepFn(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "StepFn" && obj.Pkg() != nil && obj.Pkg().Path() == kernelPkg
}

// IsProc reports whether t is kernel.Proc or a pointer to it.
func isProc(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Proc" && obj.Pkg() != nil && obj.Pkg().Path() == kernelPkg
}
