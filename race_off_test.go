//go:build !race

package rrdps_test

// raceEnabled is false without -race; see race_on_test.go.
const raceEnabled = false
