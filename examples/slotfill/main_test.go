package main

import "fmt"

// Example trains the slot-filling model and runs the walkthrough end to
// end. Its output is fixed: training and every draw are seeded.
func Example() {
	if err := run(); err != nil {
		fmt.Println(err)
	}
	// Output:
	// training skip-gram embeddings...
	//
	// discovered 3 question-type domains (true: 4)
	// mean normalized answer error over 120 questions:
	//   ETA2 expertise-aware aggregation: 0.251
	//   naive mean of system answers:     0.462
}
