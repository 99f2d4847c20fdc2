package main

import "fmt"

// Example runs the semantic walkthrough end to end. Its output is fixed:
// the example seeds every draw, and the builtin model is the same bytes on
// every machine.
func Example() {
	if err := run(); err != nil {
		fmt.Println(err)
	}
	// Output:
	// day 0: 30 tasks,  3 new domains, mean normalized error 0.331
	// day 1: 30 tasks,  0 new domains, mean normalized error 0.155
	// day 2: 30 tasks,  0 new domains, mean normalized error 0.103
	// day 3: 30 tasks,  0 new domains, mean normalized error 0.156
	//
	// discovered 3 expertise domains from descriptions alone
	// sample volunteers (learned expertise per discovered domain):
	//   volunteer 0 (specialty: domain 0):  0.45  0.73  2.99
	//   volunteer 1 (specialty: domain 1):  2.12  0.91  0.52
	//   volunteer 2 (specialty: domain 2):  0.90  1.75  0.79
}
