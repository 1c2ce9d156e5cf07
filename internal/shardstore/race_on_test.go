//go:build race

package shardstore

// raceEnabled lets heap-measuring tests skip under the race detector,
// whose shadow memory makes retained-bytes bounds meaningless.
const raceEnabled = true
