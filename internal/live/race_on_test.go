//go:build race

package live

// raceEnabled reports whether the race detector instruments this build.
// The allocation pin skips under race: instrumentation defeats sync.Pool
// caching and charges bookkeeping allocations to the caller.
const raceEnabled = true
