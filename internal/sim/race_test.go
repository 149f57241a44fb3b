//go:build race

package sim

// raceEnabled reports a race-detector build, under which sync.Pool drops a
// random share of Puts, so pooled paths allocate by design.
const raceEnabled = true
