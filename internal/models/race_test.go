//go:build race

package models

// raceEnabled reports a -race build, whose sweeps take a coarser grid.
const raceEnabled = true
