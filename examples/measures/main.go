// Measure comparison: the SimSub problem is defined over an abstract
// similarity measurement (§3.1). This example runs the same search under
// every implemented measure — DTW, discrete Fréchet, a trained t2vec-style
// encoder, and the extension measures ERP/EDR/EDS/EDwP — showing how
// the returned subtrajectory shifts with the measure while the exact
// algorithm stays the same code.
//
// Run with: go run ./examples/measures
package main

import (
	"fmt"
	"time"

	"simsub"
	"simsub/internal/dataset"
)

func main() {
	trajs := dataset.Generate(dataset.Config{Kind: dataset.Harbin, N: 60, Seed: 5})
	data := trajs[0]
	query := trajs[1].Sub(20, 39)
	fmt.Printf("data: %d points; query: %d points\n\n", data.Len(), query.Len())

	// train the learned measure on the fleet
	fmt.Println("training t2vec-style encoder...")
	t2v, err := simsub.TrainT2Vec(trajs, 16, 3, 9)
	if err != nil {
		panic(err)
	}

	measures := []simsub.Measure{
		simsub.DTW(),
		simsub.Frechet(),
		t2v,
		simsub.ERP(),
		simsub.EDR(0.02),
		simsub.EDS(),
		simsub.EDwP(),
	}

	fmt.Printf("\n%-8s  %-12s  %-10s  %-10s  %s\n", "measure", "interval", "length", "distance", "time")
	for _, m := range measures {
		start := time.Now()
		res := simsub.Exact(m).Search(data, query)
		elapsed := time.Since(start)
		fmt.Printf("%-8s  %-12v  %-10d  %-10.4f  %s\n",
			m.Name(), res.Interval, res.Interval.Len(), res.Dist, elapsed.Round(time.Microsecond))
	}

	fmt.Println("\nnote: distances are not comparable across measures; intervals are.")
}
