//go:build !race

package sim

// raceEdge is empty outside race builds; see race.go.
type raceEdge struct{}

func (raceEdge) release() {}

func (raceEdge) acquire() {}
