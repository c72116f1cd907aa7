// Command cyclops-lint runs the internal/lint analyzer suite — the static
// half of the repo's correctness story. Its three analyzers prove, over every
// call site, invariants no runtime test reaches completely: §3.6 replay
// determinism (determinism), the PR 4 transport-error taxonomy
// (transporterr), and the arena contract that a round's buffers do not escape
// it (bufretain). Contracts a runtime check settles — codec wire exactness
// and allocation-freedom, the Frontier's access discipline — are tested, not
// linted: see internal/lint/README.md, "Retired analyzers".
//
// Usage:
//
//	cyclops-lint [-json out.json] [packages...]   # default ./...
//
// It loads packages with `go list -deps -export` and type-checks against
// compiler export data, so it needs no network and no GOPATH layout. Analysis
// covers non-test Go files (tests exercise the runtime checkers; production
// code carries the structural contracts).
//
// Exit status: 0 clean, 1 driver error, 2 findings (unsuppressed). An
// intentional exception is annotated in source as
//
//	//lint:allow <analyzer> <reason>
//
// on the finding's line or the line above — the only directive there is; used
// allows are counted in the summary, and stale ones (suppressing nothing) and
// reason-less ones are themselves findings.
package main

import "os"

func main() {
	os.Exit(runStandalone(os.Args[1:], os.Stdout, os.Stderr))
}
