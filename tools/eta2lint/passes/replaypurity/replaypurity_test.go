package replaypurity

import (
	"testing"

	"eta2lint/internal/analysistest"
)

// The fixture packages name their replay roots the way the serving packages
// do, keyed by their own import paths.
func init() {
	rootNames["replay/single"] = []string{"applyEvent", "decodeEvent", "decodeStateFrames", "restoreServer"}
	rootNames["replay/cross"] = []string{"applyEvent"}
}

func TestSinglePackage(t *testing.T) {
	analysistest.Run(t, "testdata", Analyzer, "replay/single")
}

// TestCrossPackage analyzes the dependency first (producing its effect
// summary fact) and then the root package, mirroring how cmd/go
// schedules vet units; the dependency's violations surface only at the
// root package's call edges.
func TestCrossPackage(t *testing.T) {
	analysistest.RunDeps(t, "testdata", Analyzer, "replay/dep", "replay/cross")
}

// TestDepAloneIsClean: a package with impure helpers but no replay
// roots reports nothing.
func TestDepAloneIsClean(t *testing.T) {
	analysistest.Run(t, "testdata", Analyzer, "replay/dep")
}

// TestMissingRootFails: in the serving package, a name-keyed root with
// no declaration (a rename the rule was not told about) is a finding.
func TestMissingRootFails(t *testing.T) {
	analysistest.Run(t, "testdata", Analyzer, "eta2")
}
