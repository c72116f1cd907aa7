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
// Two modes:
//
//	cyclops-lint [-json out.json] [packages...]   # standalone, default ./...
//	go vet -vettool=$(which cyclops-lint) ./...   # unitchecker-compatible
//
// Standalone mode loads packages with `go list -deps -export` and
// type-checks against compiler export data, so it needs no network and no
// GOPATH layout. Analysis covers non-test Go files (tests exercise the
// runtime checkers; production code carries the structural contracts).
//
// Exit status: 0 clean, 1 driver error, 2 findings (unsuppressed). An
// intentional exception is annotated in source as
//
//	//lint:allow <analyzer> <reason>
//
// on the finding's line or the line above; used allows are counted in the
// summary and stale ones (suppressing nothing) are themselves findings.
package main

import (
	"fmt"
	"os"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr *os.File) int {
	// go vet's vettool protocol: `tool -V=full` prints the version (cache
	// key), `tool -flags` enumerates tool flags, `tool <file>.cfg` analyzes
	// one package described by the config.
	if len(args) == 1 {
		switch {
		case args[0] == "-V=full" || args[0] == "-V":
			// Bumped whenever the analyzer set or semantics change: go vet
			// keys its result cache on this line, and a stale cache would
			// silently skip the new checks.
			fmt.Fprintln(stdout, "cyclops-lint version 3 (stdlib go/analysis suite)")
			return 0
		case args[0] == "-flags":
			fmt.Fprintln(stdout, "[]")
			return 0
		case isVetCfg(args[0]):
			return runVetTool(args[0], stdout, stderr)
		}
	}
	return runStandalone(args, stdout, stderr)
}

func isVetCfg(arg string) bool {
	const suffix = ".cfg"
	return len(arg) > len(suffix) && arg[len(arg)-len(suffix):] == suffix
}
