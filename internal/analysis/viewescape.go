package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ViewEscape enforces the pooled zero-copy lifetimes PR 5 introduced.
//
// A trace.BatchView decodes in place over a pooled frame buffer: its Bytes()
// result, its Branches(i) slices of the pooled branch column, and the view
// itself are borrows that die when Release() returns the scratch to the
// pool. Likewise sync.Pool-recycled buffers are borrows that die at Put().
// Storing a borrow where it can outlive the frame — a struct field, a
// channel, a return value — is a use-after-recycle time bomb: the pool hands
// the same bytes to the next decode and the stored slice silently mutates. Retention requires Materialize (views) or an explicit copy
// (buffers); synchronous consumption before the pool reclaim is legal but
// must carry //lint:allow viewescape with the ownership argument.
var ViewEscape = &Analyzer{
	Name: "viewescape",
	Doc: "bytes borrowed from pooled trace.BatchView frames (Bytes()), " +
		"their branch column (Branches(i)), and " +
		"sync.Pool buffers must not be stored in fields, sent on channels, or " +
		"returned; copy/Materialize to retain, and never use a view after " +
		"Release() or a buffer after Put()",
	Run: runViewEscape,
}

func runViewEscape(p *Pass) {
	// internal/trace owns the view/pool machinery: the scratch moving
	// between pool and view is the abstraction being enforced, not a leak.
	if pathMatches(p.Pkg.Path, "internal/trace") {
		return
	}
	for _, file := range p.Pkg.Files {
		enclosingFuncs(file, func(fd *ast.FuncDecl) {
			checkBorrowSinks(p, fd)
			checkUseAfterReclaim(p, fd)
		})
	}
}

// --- borrowed-value escape sinks ---

// checkBorrowSinks tracks view-borrowed byte slices through locals and flags
// stores that can outlive the frame.
func checkBorrowSinks(p *Pass, fd *ast.FuncDecl) {
	info := p.Pkg.Info
	// tracked maps a local holding a borrow to the borrow's kind.
	tracked := map[types.Object]string{}
	isBorrowedExpr := func(e ast.Expr) (string, bool) {
		e = ast.Unparen(e)
		if call, ok := e.(*ast.CallExpr); ok {
			if kind, ok := borrowKind(info, call); ok {
				return kind, true
			}
		}
		if obj := identObj(info, e); obj != nil && tracked[obj] != "" {
			return tracked[obj], true
		}
		return "", false
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			// Track borrows into locals; flag borrows stored into fields,
			// map/slice elements, or globals.
			for i, rhs := range v.Rhs {
				if len(v.Lhs) != len(v.Rhs) {
					break
				}
				kind, borrowed := isBorrowedExpr(rhs)
				if !borrowed {
					// Reassignment kills tracking.
					if obj := identObj(info, v.Lhs[i]); obj != nil {
						delete(tracked, obj)
					}
					continue
				}
				switch lhs := ast.Unparen(v.Lhs[i]).(type) {
				case *ast.Ident:
					if obj := info.ObjectOf(lhs); obj != nil {
						if isPackageLevel(obj) {
							p.Reportf(v.Pos(), "%s stored in package-level %s: the borrow dies when the frame returns to its pool; copy or Materialize to retain", kind, lhs.Name)
						} else {
							tracked[obj] = kind
						}
					}
				default:
					p.Reportf(v.Pos(), "%s stored in %s: the borrow dies when the frame returns to its pool; copy or Materialize to retain", kind, exprString(v.Lhs[i]))
				}
			}
		case *ast.CompositeLit:
			for _, el := range v.Elts {
				val := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					val = kv.Value
				}
				if kind, ok := isBorrowedExpr(val); ok {
					p.Reportf(val.Pos(), "%s stored in composite literal: the literal can outlive the pooled frame; copy or Materialize to retain", kind)
				}
			}
		case *ast.SendStmt:
			if kind, ok := isBorrowedExpr(v.Value); ok {
				p.Reportf(v.Arrow, "%s sent on a channel: the receiver can hold it past the frame's pool reclaim; copy or Materialize before sending", kind)
			}
		case *ast.ReturnStmt:
			for _, r := range v.Results {
				if kind, ok := isBorrowedExpr(r); ok {
					p.Reportf(r.Pos(), "%s returned from %s: the caller outlives the borrow; copy or Materialize before returning", kind, funcName(fd))
				}
			}
		}
		return true
	})
}

// borrowKind recognizes calls that mint a pooled borrow.
func borrowKind(info *types.Info, call *ast.CallExpr) (string, bool) {
	f := calleeFunc(info, call)
	if f == nil {
		return "", false
	}
	recv := recvNamed(f)
	if recv == nil {
		return "", false
	}
	if recv.Obj().Name() != "BatchView" || !pkgMatches(recv.Obj().Pkg(), "internal/trace") {
		return "", false
	}
	switch f.Name() {
	case "Bytes":
		return "BatchView.Bytes() frame borrow", true
	case "Branches":
		return "BatchView.Branches() column borrow", true
	}
	return "", false
}

func isPackageLevel(obj types.Object) bool {
	return obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
}

// --- use-after-Release / use-after-Put ---

// checkUseAfterReclaim flags straight-line uses of a view after
// view.Release() and of a pooled value after pool.Put(x), within one block.
func checkUseAfterReclaim(p *Pass, fd *ast.FuncDecl) {
	info := p.Pkg.Info
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		block, ok := n.(*ast.BlockStmt)
		if !ok {
			return true
		}
		for i, stmt := range block.List {
			obj, verb := reclaimedObject(info, stmt)
			if obj == nil {
				continue
			}
			for _, later := range block.List[i+1:] {
				if reassigns(info, later, obj) {
					break
				}
				if pos, used := usesObject(info, later, obj); used {
					p.Reportf(pos, "%s used after %s: the pooled memory may already be handed to another decode", obj.Name(), verb)
					break
				}
			}
		}
		return true
	})
}

// reclaimedObject matches `v.Release()` (trace.BatchView) and `pool.Put(x)`
// (sync.Pool) expression statements, returning the reclaimed object.
func reclaimedObject(info *types.Info, stmt ast.Stmt) (types.Object, string) {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return nil, ""
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return nil, ""
	}
	f := calleeFunc(info, call)
	if f == nil {
		return nil, ""
	}
	recv := recvNamed(f)
	if recv == nil {
		return nil, ""
	}
	switch {
	case f.Name() == "Release" && recv.Obj().Name() == "BatchView" && pkgMatches(recv.Obj().Pkg(), "internal/trace"):
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return nil, ""
		}
		return identObj(info, sel.X), "Release()"
	case f.Name() == "Put" && recv.Obj().Name() == "Pool" && recv.Obj().Pkg() != nil && recv.Obj().Pkg().Path() == "sync":
		if len(call.Args) != 1 {
			return nil, ""
		}
		return identObj(info, call.Args[0]), "Pool.Put()"
	}
	return nil, ""
}

// reassigns reports whether stmt assigns a fresh value to obj.
func reassigns(info *types.Info, stmt ast.Stmt, obj types.Object) bool {
	as, ok := stmt.(*ast.AssignStmt)
	if !ok {
		return false
	}
	for _, lhs := range as.Lhs {
		if identObj(info, lhs) == obj {
			return true
		}
	}
	return false
}

// usesObject reports the first use of obj within stmt.
func usesObject(info *types.Info, stmt ast.Stmt, obj types.Object) (pos token.Pos, used bool) {
	ast.Inspect(stmt, func(n ast.Node) bool {
		if used {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			pos, used = id.Pos(), true
			return false
		}
		return true
	})
	return pos, used
}
