package main

import "fmt"

// Example runs the smallest server loop end to end. Its output is fixed:
// the example seeds every draw.
func Example() {
	if err := run(); err != nil {
		fmt.Println(err)
	}
	// Output:
	// round 0 (MLE converged in 2 iterations):
	//   task 0: estimated 21.83 (true 21.5, 3 observations)
	//   task 1: estimated 27.38 (true 24.0, 3 observations)
	// round 1 (MLE converged in 2 iterations):
	//   task 2: estimated 20.73 (true 21.5, 3 observations)
	//   task 3: estimated 24.70 (true 24.0, 3 observations)
	// round 2 (MLE converged in 2 iterations):
	//   task 4: estimated 21.58 (true 21.5, 3 observations)
	//   task 5: estimated 24.48 (true 24.0, 3 observations)
	// round 3 (MLE converged in 2 iterations):
	//   task 6: estimated 21.73 (true 21.5, 3 observations)
	//   task 7: estimated 24.61 (true 24.0, 3 observations)
	//
	// learned expertise in the climate domain:
	//   user 0: 1.82 (true 3.0)
	//   user 1: 1.15 (true 1.0)
	//   user 2: 0.44 (true 0.3)
}
