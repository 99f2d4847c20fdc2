package analysis

import (
	"encoding/json"
	"fmt"
	"os"
)

// Facts is the inter-procedural side channel of the analysis framework:
// each analyzer may export one opaque blob per package, and read the
// blobs it exported for the package's dependencies. The shape mirrors
// the x/tools facts mechanism at the transport level — facts ride the
// go vet vetx files, so `go vet -vettool` multi-package runs compose
// summaries across compilation units exactly the way x/tools facts do —
// but the payload is analyzer-defined (the callgraph engine uses JSON
// effect summaries).
//
// Contract: a blob must be self-contained for the package's whole
// transitive dependency cone (analyzers re-export what they read), so a
// reader only ever needs the blobs of its direct imports.
type Facts interface {
	// Read returns the blob analyzer exported for pkgPath, or nil when
	// the package is outside the analysis universe (standard library,
	// packages analyzed without facts support).
	Read(analyzer, pkgPath string) []byte
	// Export records the current package's blob for analyzer.
	Export(analyzer string, data []byte)
}

// MemFacts is the in-memory Facts store used by the analysistest
// harness, where every package of the run shares one process.
type MemFacts struct {
	m map[string]map[string][]byte // analyzer -> pkgPath -> blob
}

// NewMemFacts allocates an empty store.
func NewMemFacts() *MemFacts { return &MemFacts{m: make(map[string]map[string][]byte)} }

// Read implements Facts over the store's map.
func (f *MemFacts) Read(analyzer, pkgPath string) []byte { return f.m[analyzer][pkgPath] }

// ExportFor records a blob for an explicit package path — the driver
// binds it to the package currently under analysis via factsFor.
func (f *MemFacts) ExportFor(analyzer, pkgPath string, data []byte) {
	byPkg := f.m[analyzer]
	if byPkg == nil {
		byPkg = make(map[string][]byte)
		f.m[analyzer] = byPkg
	}
	byPkg[pkgPath] = data
}

// For scopes the store to one package under analysis: Export lands under
// that package's path.
func (f *MemFacts) For(pkgPath string) Facts { return factsFor{f, pkgPath} }

type factsFor struct {
	store *MemFacts
	pkg   string
}

func (f factsFor) Read(analyzer, pkgPath string) []byte { return f.store.Read(analyzer, pkgPath) }
func (f factsFor) Export(analyzer string, data []byte)  { f.store.ExportFor(analyzer, f.pkg, data) }

// ---- vetx serialization -------------------------------------------------
//
// A vetx file (the facts file cmd/go caches per compilation unit and
// hands to dependent units through PackageVetx) is a JSON object mapping
// analyzer name to its blob. JSON keeps the file greppable when
// debugging a cross-package finding; map keys marshal sorted, so the
// bytes are deterministic and build-cache friendly.

// EncodeVetx serializes one package's exported facts to a vetx file.
// An empty fact set still writes a valid (empty-object) file — cmd/go
// requires the file to exist.
func EncodeVetx(path string, byAnalyzer map[string][]byte) error {
	ordered := make(map[string][]byte, len(byAnalyzer))
	for k, v := range byAnalyzer {
		ordered[k] = v
	}
	data, err := json.Marshal(ordered)
	if err != nil {
		return fmt.Errorf("encode facts: %w", err)
	}
	if err := os.WriteFile(path, data, 0o666); err != nil {
		return fmt.Errorf("write facts: %w", err)
	}
	return nil
}

// DecodeVetx parses a vetx file. A legacy empty file (written by
// pre-facts builds of this tool) decodes as no facts; real corruption is
// an error so a broken cache fails loudly instead of silently dropping
// cross-package findings.
func DecodeVetx(path string) (map[string][]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read facts: %w", err)
	}
	if len(data) == 0 {
		return nil, nil
	}
	var byAnalyzer map[string][]byte
	if err := json.Unmarshal(data, &byAnalyzer); err != nil {
		return nil, fmt.Errorf("parse facts %s: %w", path, err)
	}
	return byAnalyzer, nil
}
