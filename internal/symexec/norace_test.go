//go:build !race

package symexec_test

const raceEnabled = false
