//go:build !race

package live

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
