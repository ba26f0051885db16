//go:build race

package main

// raceEnabled lets the run test skip share thresholds that only hold at
// full speed: the race detector slows the generator more than the workers.
const raceEnabled = true
