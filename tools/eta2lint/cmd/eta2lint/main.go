// Command eta2lint runs the ETA² project-invariant analyzers as a
// `go vet -vettool`.
package main

import (
	"os"

	"eta2lint/internal/multichecker"
	"eta2lint/passes/allocdiscipline"
	"eta2lint/passes/floatcmp"
	"eta2lint/passes/lockdiscipline"
	"eta2lint/passes/maprange"
	"eta2lint/passes/replaypurity"
	"eta2lint/passes/spandiscipline"
)

func main() {
	os.Exit(multichecker.Main(
		maprange.Analyzer,
		lockdiscipline.Analyzer,
		floatcmp.Analyzer,
		allocdiscipline.Analyzer,
		spandiscipline.Analyzer,
		replaypurity.Analyzer,
	))
}
