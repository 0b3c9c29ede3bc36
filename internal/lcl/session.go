package lcl

import (
	"locallab/internal/graph"
)

// SolverSession is a solver execution pinned to one graph: whatever the
// solver can allocate once per graph — typed engine sessions with their
// flat message planes and worker pools, machine sets, schedules — is
// built at session construction and reused by every Solve. Solve has the
// same contract as Solver.Solve on the pinned graph, and repeated calls
// under one seed must produce identical labelings (the serving layer's
// pooled-vs-fresh parity tests pin this). Sessions are not safe for
// concurrent use. Close releases pinned resources; the session must not
// be used after.
type SolverSession interface {
	Solve(in *Labeling, seed int64) (*Labeling, *Cost, error)
	Close()
}

// SessionSolver is the optional capability of solvers that can pin a
// reusable session to one graph. Callers that run the same instance
// repeatedly — the serving layer's session pool — probe for it with a
// type assertion and fall back to per-call Solve when it is absent. An
// error from NewSolverSession is a real failure (e.g. a graph the solver
// does not run on), not a request to fall back.
type SessionSolver interface {
	NewSolverSession(g *graph.Graph) (SolverSession, error)
}
