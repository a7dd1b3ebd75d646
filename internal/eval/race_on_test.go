//go:build race

package eval

import "runtime/debug"

// raceEnabled reports whether this test binary was built with the race
// detector, whose shadow memory multiplies a campaign's footprint.
const raceEnabled = true

// The race detector's shadow memory follows the heap's high-water mark,
// several times over, and the whole-figure tests replay the sweeps'
// largest plans. Collecting at 25% heap growth instead of the default
// 100% keeps this package's race run within an 8 GB host.
func init() { debug.SetGCPercent(25) }

// raceWorkList keeps the first and last problem of a sweep (its smallest
// and largest shapes), so the race build still replays both ends of the
// sweep's tile range on concurrent workers but fits a small host.
func raceWorkList(problems []Problem) []Problem {
	if len(problems) <= 2 {
		return problems
	}
	return []Problem{problems[0], problems[len(problems)-1]}
}
