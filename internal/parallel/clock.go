package parallel

import "time"

// Clock samples the current time for the pool's utilization accounting.
// Injecting it (NewPoolClock, one clock per work item) makes the
// accounting testable without real time; everything else in the package
// is wall-clock free, which keeps the determinism allowlist down to this
// one file.
type Clock func() time.Time

// wallClock is the production clock. This file is the only sanctioned
// wall-clock reference outside the cmd/ render layers (see cocolint.json).
func wallClock() time.Time { return time.Now() }
