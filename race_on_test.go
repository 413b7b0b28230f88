//go:build race

package rrdps_test

// raceEnabled reports whether this test binary was built with the race
// detector, whose instrumentation allocates on paths that are otherwise
// allocation-free. Alloc-budget assertions skip under it.
const raceEnabled = true
