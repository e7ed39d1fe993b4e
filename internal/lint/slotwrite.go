package lint

import (
	"go/ast"
	"go/token"
)

// Slotwrite flags shared-state mutation inside `go func` closures:
// appending to a slice captured from the enclosing scope, and ++/--/+=
// style accumulation into captured variables or fields. Both are the
// racy patterns the deterministic worker pool forbids — concurrent
// appends interleave in scheduling order (and race), so parallel output
// diverges from serial. The blessed pattern is a preallocated,
// index-addressed slot per work unit (internal/par,
// obs's CellSpan slots): writing results[i] from the goroutine that owns
// index i is race-free and order-independent, and is deliberately not
// flagged.
//
// Mutation that is genuinely synchronized (held under a mutex) can be
// annotated //transched:allow-slotwrite <reason>; plain assignment under
// a lock, like the pool's first-error election, is not flagged at all.
var Slotwrite = &Analyzer{
	Name: "slotwrite",
	Doc: "flag append/accumulation into captured state inside go closures\n\n" +
		"Concurrent appends and compound assignments to captured variables\n" +
		"race and make output depend on goroutine scheduling; preallocate a\n" +
		"slot per work unit and write results[i] instead.",
	Run: runSlotwrite,
}

func runSlotwrite(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit)
			if !ok {
				return true
			}
			checkGoClosure(pass, lit)
			return true
		})
	}
	return nil
}

func checkGoClosure(pass *Pass, lit *ast.FuncLit) {
	captured := func(e ast.Expr) (string, bool) {
		obj, _ := lhsObject(pass.TypesInfo, e)
		if obj == nil {
			return "", false
		}
		return obj.Name(), !declaredWithin(obj, lit.Pos(), lit.End())
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.IncDecStmt:
			if name, isCaptured := captured(st.X); isCaptured {
				pass.Reportf(st.Pos(),
					"%s of captured %q inside go closure: concurrent accumulation races and depends on scheduling order (use an index-addressed slot per work unit, or a sync/atomic counter)",
					st.Tok, name)
			}
		case *ast.AssignStmt:
			for i, lhs := range st.Lhs {
				if st.Tok == token.ASSIGN && i < len(st.Rhs) {
					if call, ok := ast.Unparen(st.Rhs[i]).(*ast.CallExpr); ok && isAppend(pass.TypesInfo, call) {
						if name, isCaptured := captured(lhs); isCaptured {
							pass.Reportf(st.Pos(),
								"append to captured %q inside go closure: concurrent appends race and interleave in scheduling order (preallocate and write results[i] — see internal/par)",
								name)
							continue
						}
					}
				}
				switch st.Tok {
				case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN,
					token.REM_ASSIGN, token.AND_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN,
					token.SHL_ASSIGN, token.SHR_ASSIGN, token.AND_NOT_ASSIGN:
					if name, isCaptured := captured(lhs); isCaptured {
						pass.Reportf(st.Pos(),
							"%s to captured %q inside go closure: concurrent accumulation races and depends on scheduling order (use an index-addressed slot per work unit, or a sync/atomic counter)",
							st.Tok, name)
					}
				}
			}
		}
		return true
	})
}
