//go:build race

package cdt

func init() { raceEnabled = true }
