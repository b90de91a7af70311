// Command drtmr-vet is the vet tool bundling drtmr's eight invariant
// analyzers (internal/lint): htmregion, virtualtime, abortattr, lockpair,
// doorbell, lockorder, hotalloc, enumswitch. It speaks cmd/go's vet tool
// protocol; run it over both halves of the race/!race build-tag pairs:
//
//	go vet -vettool=$(command -v drtmr-vet) ./...
//	go vet -vettool=$(command -v drtmr-vet) -tags race ./...
//
// Any finding fails the run. Suppress one with
// `//drtmr:allow <analyzer> <reason>` on the offending line or the line
// above (the reason is required).
package main

import (
	"drtmr/internal/lint"
	"drtmr/internal/lint/unitchecker"
)

func main() {
	unitchecker.Main(lint.Analyzers...)
}
