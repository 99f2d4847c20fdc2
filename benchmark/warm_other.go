//go:build !unix

package main

// The keep-warm spinners rest on setpriority; elsewhere the benchmark runs
// without them.

func keepWarm() {}
func spin()     {}
