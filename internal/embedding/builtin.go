package embedding

import (
	"bytes"
	_ "embed"
)

// builtinModel is the Save bytes of the builtin corpus at seed 1 trained with
// default hyperparameters at seed 2. TestBuiltinIsTrainedModel re-trains it
// and requires these bytes; `go test ./internal/embedding/ -run
// TestBuiltinIsTrainedModel -update` rewrites the file.
//
//go:embed builtin_model.json
var builtinModel []byte

// Builtin loads the one model this repository's binaries, experiments and
// benchmark use. Every call returns a new model of the same bytes, so every
// node of every host runs the same embeddings.
func Builtin() (*Model, error) {
	return Load(bytes.NewReader(builtinModel))
}
