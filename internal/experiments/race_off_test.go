//go:build !race

package experiments

// raceBuild reports a -race build. The Fig 5b / Fig 14 shape gates replay 8
// simulated seconds of an unthrottled engine on one goroutine: under the race
// detector that takes most of the ten-minute test timeout and checks nothing
// the plain build does not.
const raceBuild = false
