package network

import (
	"context"
	"fmt"

	"paradise/internal/engine"
	"paradise/internal/fragment"
)

// RunFanIn simulates the paper's real node-count situation (Table 1: >= 100
// sensors feed 10-50 appliances feeding one PC): the base data is spread
// round-robin over sensorCount sensor nodes, each runs the sensor-level
// fragment over its own shard in parallel, and the shard results fan in
// over the sensor->appliance link before the remaining fragments continue
// up the chain as in Run.
//
// It is Run with a different accounting of the bottom node (see
// placeStats): the first link carries the sum of all shard outputs, while
// simulated time takes the largest shard's compute (parallel sensors) plus
// one transfer latency per sensor (the sensors share the low-bandwidth
// medium). When stage 1 does not run on the bottom node, or one sensor
// holds all the data, RunFanIn is exactly Run.
func RunFanIn(ctx context.Context, topo *Topology, plan *fragment.Plan, src engine.Source, sensorCount int, opts ...Option) (*RunStats, error) {
	if sensorCount < 1 {
		return nil, fmt.Errorf("%w: sensor count must be >= 1", ErrNetwork)
	}
	return run(ctx, topo, plan, src, sensorCount, opts...)
}
