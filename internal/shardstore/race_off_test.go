//go:build !race

package shardstore

const raceEnabled = false
