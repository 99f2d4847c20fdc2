package main

import "testing"

// TestRun drives the whole deployment once. Only its success is checked: the
// devices submit from goroutines in scheduler order, and the server listens
// on an ephemeral port.
func TestRun(t *testing.T) {
	if err := run(); err != nil {
		t.Fatal(err)
	}
}
