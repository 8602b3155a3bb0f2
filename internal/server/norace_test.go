//go:build !race

package server

// raceEnabled reports a -race build, whose sweeps take a coarser stride.
const raceEnabled = false
