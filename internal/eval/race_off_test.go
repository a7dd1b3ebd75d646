//go:build !race

package eval

// raceEnabled reports whether this test binary was built with the race
// detector (see race_on_test.go).
const raceEnabled = false

// raceWorkList is the identity outside the race build.
func raceWorkList(problems []Problem) []Problem { return problems }
