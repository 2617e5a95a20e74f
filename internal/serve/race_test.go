//go:build race

package serve

// raceEnabled reports a -race build, whose allocation counts the
// allocation gates do not hold.
const raceEnabled = true
