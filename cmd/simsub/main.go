// Command simsub answers similar subtrajectory queries over a trajectory
// database: for a query trajectory it reports the top-k most similar
// subtrajectories across all data trajectories (Problem 1 of the paper,
// lifted to a database with optional R-tree pruning).
//
// Usage:
//
//	simsub -data porto.csv -query query.csv -measure dtw -algo pss -topk 5
//	simsub -data porto.csv -query query.csv -algo rls -policy skip.policy -index
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"simsub/internal/core"
	"simsub/internal/rl"
	"simsub/internal/sim"
	"simsub/internal/t2vec"
	"simsub/internal/traj"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("simsub: ")
	var (
		dataPath    = flag.String("data", "", "data trajectories (CSV, required)")
		queryPath   = flag.String("query", "", "query trajectory (CSV, first trajectory used; required)")
		measureName = flag.String("measure", "dtw", "similarity measure: dtw, frechet, erp, edr, or t2vec with -t2vec-model")
		modelPath   = flag.String("t2vec-model", "", "t2vec model file (required with -measure t2vec)")
		algoName    = flag.String("algo", "pss", "algorithm: exacts, sizes, pss, pos, pos-d, rls")
		policyPath  = flag.String("policy", "", "trained policy file (required for -algo rls)")
		topK        = flag.Int("topk", 5, "number of matches to report")
		useIndex    = flag.Bool("index", false, "build and use the R-tree MBR index")
	)
	flag.Parse()
	if *dataPath == "" || *queryPath == "" {
		log.Fatal("-data and -query are required")
	}

	data, err := traj.LoadCSV(*dataPath)
	if err != nil {
		log.Fatalf("loading data: %v", err)
	}
	queries, err := traj.LoadCSV(*queryPath)
	if err != nil {
		log.Fatalf("loading query: %v", err)
	}
	if len(queries) == 0 || queries[0].Len() == 0 {
		log.Fatal("query file holds no trajectory")
	}
	q := queries[0]

	var m sim.Measure
	switch {
	case *measureName != "t2vec":
		m, err = sim.ByName(*measureName)
	case *modelPath == "":
		log.Fatal("-measure t2vec requires -t2vec-model (train one with cmd/train -mode t2vec)")
	default:
		m, err = t2vec.LoadFile(*modelPath)
	}
	if err != nil {
		log.Fatal(err)
	}

	var alg core.Algorithm
	if *algoName == "rls" {
		if *policyPath == "" {
			log.Fatal("-algo rls requires -policy (train one with cmd/train)")
		}
		p, err := rl.LoadFile(*policyPath)
		if err != nil {
			log.Fatalf("loading policy: %v", err)
		}
		alg = core.RLS{M: m, Policy: p}
	} else {
		var ok bool
		alg, ok = core.AlgorithmFor(*algoName, m)
		if !ok {
			log.Fatalf("unknown algorithm %q", *algoName)
		}
	}

	db := core.NewDatabase(data, *useIndex)
	start := time.Now()
	matches := db.TopK(alg, q, *topK)
	elapsed := time.Since(start)

	fmt.Printf("query: %d points; database: %d trajectories; algorithm: %s (%s); index: %v\n",
		q.Len(), db.Len(), alg.Name(), m.Name(), *useIndex)
	fmt.Printf("search time: %s\n\n", elapsed.Round(time.Microsecond))
	for rank, match := range matches {
		t := db.Traj(match.TrajIndex)
		iv := match.Result.Interval
		fmt.Printf("#%d trajectory %d  subtrajectory [%d..%d] (%d pts)  dist %.6f  sim %.4f\n",
			rank+1, t.ID, iv.I, iv.J, iv.Len(), match.Result.Dist, sim.Sim(match.Result.Dist))
	}
	if len(matches) == 0 {
		fmt.Println("no matches (empty database or everything pruned)")
	}
}
