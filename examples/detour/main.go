// Detour route detection (the paper's §1 second application): given a route
// reported by passengers as a detour, find taxi subtrajectories similar to
// it — those taxis probably took the same detour. Demonstrates database
// search with R-tree pruning and compares the splitting algorithms against
// the exact search on the retrieved candidates.
//
// Run with: go run ./examples/detour
package main

import (
	"fmt"
	"time"

	"simsub"
	"simsub/internal/dataset"
)

func main() {
	// a fleet of taxi trajectories on the synthetic Porto-like road grid
	taxis := dataset.Generate(dataset.Config{Kind: dataset.Porto, N: 400, Seed: 21})
	fmt.Printf("fleet: %d taxi trajectories, %d GPS points\n",
		len(taxis), dataset.TotalPoints(taxis))

	// the reported detour: a segment of one taxi's route, as a passenger
	// would reconstruct it
	reported := taxis[137].Sub(10, 29)
	fmt.Printf("reported detour route: %d points\n\n", reported.Len())

	db := simsub.NewDatabase(taxis, true)
	pruned := len(taxis) - len(db.Candidates(reported, nil))
	fmt.Printf("R-tree MBR pruning discards %d of %d trajectories up front\n\n",
		pruned, len(taxis))

	// fast screening with PSS, then exact confirmation of the shortlist
	start := time.Now()
	shortlist := db.TopK(simsub.PrefixSuffix(simsub.DTW()), reported, 10)
	screenTime := time.Since(start)

	fmt.Printf("screening with PSS took %s; confirming shortlist with ExactS:\n",
		screenTime.Round(time.Millisecond))
	exact := simsub.Exact(simsub.DTW())
	confirmed := 0
	for _, match := range shortlist {
		t := db.Traj(match.TrajIndex)
		res := exact.Search(t, reported)
		simVal := simsub.Sim(res.Dist)
		marker := " "
		if simVal > 0.9 { // strong detour evidence
			marker = "*"
			confirmed++
		}
		fmt.Printf(" %s taxi %3d  subroute [%3d..%3d]  similarity %.4f (PSS estimate %.4f)\n",
			marker, t.ID, res.Interval.I, res.Interval.J,
			simVal, simsub.Sim(match.Result.Dist))
	}
	fmt.Printf("\n%d taxis confirmed on the detour (marked *)\n", confirmed)
}
