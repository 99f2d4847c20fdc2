// Package multichecker is the eta2lint driver: the one binary behind
// `go vet -vettool=$(which eta2lint) ./...`. cmd/go invokes it per
// compilation unit with -V=full / -flags / a JSON config file, handled by
// the unitchecker package. There is no standalone mode — go vet is the
// only thing that loads packages and renders findings.
package multichecker

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"strings"

	"eta2lint/internal/analysis"
	"eta2lint/internal/unitchecker"
)

// Main answers the three invocations of the vet protocol and returns the
// process exit code: 0 clean, 1 error or misuse, 2 findings.
func Main(analyzers ...*analysis.Analyzer) int {
	args := os.Args[1:]
	if len(args) == 1 {
		switch arg := args[0]; {
		case strings.HasPrefix(arg, "-V"):
			// Identify the tool for the build cache. cmd/go requires the
			// trailing buildID= field; hashing the executable makes cached
			// vet results invalidate when the tool binary changes.
			fmt.Printf("eta2lint version devel buildID=%x\n", selfHash())
			return 0
		case arg == "-flags":
			fmt.Println("[]") // no tool flags
			return 0
		case strings.HasSuffix(arg, ".cfg"):
			return unitchecker.Run(arg, analyzers)
		}
	}
	fmt.Fprintf(os.Stderr, "usage: go vet -vettool=%s [packages]\n\nAnalyzers:\n", os.Args[0])
	for _, a := range analyzers {
		doc, _, _ := strings.Cut(a.Doc, "\n")
		fmt.Fprintf(os.Stderr, "  %-20s %s\n", a.Name, doc)
	}
	return 1
}

// selfHash hashes the running executable for the -V=full build ID.
func selfHash() []byte {
	h := sha256.New()
	exe, err := os.Executable()
	if err == nil {
		if f, err := os.Open(exe); err == nil {
			_, _ = io.Copy(h, f)
			f.Close()
		}
	}
	return h.Sum(nil)
}
