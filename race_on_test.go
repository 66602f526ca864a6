//go:build race

package cliffedge

const raceEnabled = true
