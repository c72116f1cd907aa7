// Command cyclops-lint runs the internal/lint analyzer suite — the static
// half of the repo's correctness story. The analyzers prove structural
// invariants over every call site that the runtime machinery (replica
// auditor, flight recorder, chaos tests) can only check on executed paths:
// §3.6 replay determinism, the PR 4 transport-error taxonomy, single-mode
// atomic access, obs.Hooks begin/end pairing, no sends under locks, and the
// four hot-path contracts behind the binary wire overhaul — arena buffers
// must not escape their round (bufretain), codec Append/EncodedSize/Decode
// must agree byte for byte (codecsym), engine supersteps must address CSR
// slots rather than probe ID-keyed maps (slotaddr), and //lint:hotpath
// functions must not allocate (allocfree).
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
// on the finding's line or the line above; used allows are counted in the
// summary and stale ones (suppressing nothing) are themselves findings.
package main

import "os"

func main() {
	os.Exit(runStandalone(os.Args[1:], os.Stdout, os.Stderr))
}
