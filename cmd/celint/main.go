// Command celint runs the simulator's custom static analyzers (dirlint
// and errlint) as a go vet tool:
//
//	go build -o /tmp/celint ./cmd/celint
//	go vet -vettool=/tmp/celint ./...
//
// cmd/go orders the packages, caches the results and carries analyzer
// facts between packages. Run on its own, celint prints a usage line and
// exits 2.
package main

import (
	"os"

	"repro/internal/lint/celint"
)

func main() {
	os.Exit(celint.Main(os.Args[1:], os.Stdout, os.Stderr))
}
