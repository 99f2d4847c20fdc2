//go:build !race

package rcu

const raceEnabled = false
