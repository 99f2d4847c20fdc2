package main

import "fmt"

// Example runs the walkthrough end to end. Its output is fixed: the
// example seeds every draw.
func Example() {
	if err := run(); err != nil {
		fmt.Println(err)
	}
	// Output:
	// max-quality day: recruited 400 shopper-tasks → cost $400
	// min-cost day:    recruited 120 shopper-tasks → cost $120 (4 iterations, 0 unmet)
	// min-cost accuracy: worst normalized price error 0.732 (requirement: < 0.5 with 95% confidence)
	// savings vs max-quality: $280 (70%)
}
