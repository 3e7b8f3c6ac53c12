//go:build race

package main

// raceEnabled stretches the tiny runs, which the race detector slows
// below the sample counts the percentiles need.
const raceEnabled = true
