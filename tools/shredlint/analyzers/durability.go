package analyzers

import (
	"go/ast"
	"go/token"

	"shredder/tools/shredlint/analysis"
)

// Durability encodes the store's write-ahead ordering contract:
//
//  1. Journal before apply. Inside any one function, a refcount
//     change (releaseRefs / applyDelta) must not precede the journal
//     call that makes it recoverable (DeleteRecipe / CommitRecipe
//     tombstones, LogRefDelta deltas). A crash between an applied
//     decrement and a missing tombstone leaks or loses chunks.
//  2. Commit points sync. In a package that declares the fsync policy
//     (type FsyncMode), every exported Commit / CommitRecipe /
//     DeleteRecipe / Checkpoint must reach a (*os.File).Sync call
//     through the package's own call graph, so the policy can make the
//     record durable before the caller is acked. A call through a
//     package variable initialised to a .Sync method expression (the
//     test seam, `var fsyncFile = (*os.File).Sync`) counts as the Sync.
//  3. Barrier before ack. In a package that declares commitBarrier (the
//     store in front of a group-commit backing), a function that calls
//     CommitRecipe or DeleteRecipe must call commitBarrier afterwards:
//     puts and pins no longer wait for a sync round, so the recipe
//     commit and the tombstone are where the whole durable-before-ack
//     promise is paid.
//  4. Data before journal. In the package that declares FsyncMode, a
//     function that writes the shard WAL buffer to its journal (the
//     journal's append method, or a file's WriteAt, handed a walBuf)
//     must have flushed the staged container run (writeRunLocked)
//     earlier in the same function. Appends stage chunk
//     bytes and insert records side by side; only the order of those two
//     statements keeps a record from reaching the journal ahead of the
//     bytes it names, where recovery would trust it.
var Durability = &analysis.Analyzer{
	Name: "durability",
	Doc:  "WAL journal entries must be written (and commit points synced) before their effects apply",
	Run:  runDurability,
}

// durabilityPairs lists (journal, apply) call names: when one function
// calls both, the journal call must come first.
var durabilityPairs = []struct{ journal, apply string }{
	{"DeleteRecipe", "releaseRefs"},
	{"CommitRecipe", "releaseRefs"},
	{"LogRefDelta", "applyDelta"},
}

// commitPoints are the exported entry points that promise durability
// to their callers.
var commitPoints = map[string]bool{
	"Commit":       true,
	"CommitRecipe": true,
	"DeleteRecipe": true,
	"Checkpoint":   true,
}

func runDurability(pass *analysis.Pass) error {
	barriered := pass.Pkg != nil && declaresFunc(pass, "commitBarrier")
	// Only the persistence layer (marked by declaring FsyncMode) owns
	// commit points and the shard's staged run.
	persistence := pass.Pkg != nil && pass.Pkg.Scope().Lookup("FsyncMode") != nil
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkJournalOrder(pass, fd)
				if barriered {
					checkBarrierAfterJournal(pass, fd)
				}
				if persistence {
					checkDataBeforeJournal(pass, fd)
				}
			}
		}
	}
	if persistence {
		checkCommitPointsSync(pass)
	}
	return nil
}

// checkDataBeforeJournal flags a journal write of the shard's walBuf —
// x.append(walBuf) or x.WriteAt(walBuf, …), methods only, so the builtin
// append that stages a record is not one — that no writeRunLocked call
// precedes in fd.
func checkDataBeforeJournal(pass *analysis.Pass, fd *ast.FuncDecl) {
	var journal []*ast.CallExpr
	runFlushed := token.Pos(-1)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch calleeName(call) {
		case "writeRunLocked":
			if runFlushed < 0 || call.Pos() < runFlushed {
				runFlushed = call.Pos()
			}
		case "append", "WriteAt":
			_, method := call.Fun.(*ast.SelectorExpr)
			if method && len(call.Args) > 0 && exprName(call.Args[0]) == "walBuf" {
				journal = append(journal, call)
			}
		}
		return true
	})
	for _, call := range journal {
		if runFlushed < 0 || runFlushed > call.Pos() {
			pass.Reportf(call.Pos(), "%s writes the WAL buffer before the staged container run is flushed; call writeRunLocked first so no insert record is journaled ahead of its bytes", fd.Name.Name)
		}
	}
}

// checkJournalOrder flags apply-before-journal orderings within fd.
func checkJournalOrder(pass *analysis.Pass, fd *ast.FuncDecl) {
	first := map[string]token.Pos{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if name := calleeName(call); name != "" {
				minPos(first, name, call.Pos())
			}
		}
		return true
	})
	for _, pr := range durabilityPairs {
		jp, jok := first[pr.journal]
		ap, aok := first[pr.apply]
		if jok && aok && ap < jp {
			pass.Reportf(ap, "%s applies a refcount change before %s journals it; journal the tombstone/delta first so a crash cannot lose it", pr.apply, pr.journal)
		}
	}
}

// declaresFunc reports whether the package declares a function or method
// with the given name.
func declaresFunc(pass *analysis.Pass, name string) bool {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name == name {
				return true
			}
		}
	}
	return false
}

// checkBarrierAfterJournal flags fd when it journals a recipe record
// (CommitRecipe, DeleteRecipe) and no commitBarrier call follows the
// last such call.
func checkBarrierAfterJournal(pass *analysis.Pass, fd *ast.FuncDecl) {
	var journal *ast.CallExpr
	var barrier token.Pos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			switch calleeName(call) {
			case "commitBarrier":
				barrier = max(barrier, call.Pos())
			case "CommitRecipe", "DeleteRecipe":
				if journal == nil || call.Pos() > journal.Pos() {
					journal = call
				}
			}
		}
		return true
	})
	if journal != nil && barrier < journal.Pos() {
		pass.Reportf(journal.Pos(), "%s journals a record but no commitBarrier follows it in %s; under group commit the ack would outrun the fsync", calleeName(journal), fd.Name.Name)
	}
}

// syncAliases collects package-level variables initialised to a .Sync
// method expression or value — seams a test can wrap around the fsync.
func syncAliases(pass *analysis.Pass) map[string]bool {
	aliases := map[string]bool{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, v := range vs.Values {
					if sel, ok := v.(*ast.SelectorExpr); ok && sel.Sel.Name == "Sync" && i < len(vs.Names) {
						aliases[vs.Names[i].Name] = true
					}
				}
			}
		}
	}
	return aliases
}

// checkCommitPointsSync verifies every exported commit point reaches a
// .Sync() call through the in-package call graph.
func checkCommitPointsSync(pass *analysis.Pass) {
	calls := map[string][]string{} // decl name -> callee names
	syncs := map[string]bool{}     // decl name -> contains a direct .Sync() call
	decls := map[string][]*ast.FuncDecl{}
	aliases := syncAliases(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			name := fd.Name.Name
			decls[name] = append(decls[name], fd)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				cn := calleeName(call)
				if cn == "Sync" || aliases[cn] {
					syncs[name] = true
				}
				if cn != "" {
					calls[name] = append(calls[name], cn)
				}
				return true
			})
		}
	}
	reaches := func(start string) bool {
		seen := map[string]bool{}
		queue := []string{start}
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			if seen[n] {
				continue
			}
			seen[n] = true
			if syncs[n] {
				return true
			}
			queue = append(queue, calls[n]...)
		}
		return false
	}
	for name, fds := range decls {
		if !commitPoints[name] || !ast.IsExported(name) {
			continue
		}
		for _, fd := range fds {
			if !reaches(name) {
				pass.Reportf(fd.Pos(), "commit point %s never reaches a file Sync; apply the fsync policy before returning success", name)
			}
		}
	}
}
