package snapshotimmutability

import (
	"testing"

	"eta2lint/internal/analysistest"
)

func TestSinglePackage(t *testing.T) {
	analysistest.Run(t, "testdata", Analyzer, "snapshot/single")
}

// TestCrossPackage analyzes the helper package first so its
// write-through-parameter facts are available, then the package that
// publishes snapshots; violations anchor at the local call sites.
func TestCrossPackage(t *testing.T) {
	analysistest.RunDeps(t, "testdata", Analyzer, "snapshot/storage", "snapshot/cross")
}

// TestHelperAloneIsClean: a package without a state cell only
// contributes facts and reports nothing.
func TestHelperAloneIsClean(t *testing.T) {
	analysistest.Run(t, "testdata", Analyzer, "snapshot/storage")
}
