// Command train fits the learned components: the t2vec-style trajectory
// encoder (§3.2) and the DQN splitting policies of RLS / RLS-Skip
// (Algorithm 3).
//
// Usage:
//
//	train -mode t2vec -data porto.csv -hidden 16 -epochs 5 -out t2vec.model
//	train -mode rls -data porto.csv -measure dtw -k 3 -episodes 500 -out skip.policy
//
// Without -data, a synthetic dataset is generated (-kind, -n).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"simsub/internal/core"
	"simsub/internal/dataset"
	"simsub/internal/rl"
	"simsub/internal/sim"
	"simsub/internal/t2vec"
	"simsub/internal/traj"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("train: ")
	var (
		mode     = flag.String("mode", "rls", "what to train: t2vec or rls")
		data     = flag.String("data", "", "training trajectories (CSV); empty = generate")
		kindName = flag.String("kind", "porto", "synthetic dataset kind when -data is empty")
		n        = flag.Int("n", 500, "synthetic dataset size when -data is empty")
		seed     = flag.Int64("seed", 1, "random seed")
		out      = flag.String("out", "", "output model/policy file (required)")

		hidden   = flag.Int("hidden", 16, "t2vec embedding width")
		epochs   = flag.Int("epochs", 5, "t2vec training epochs")
		grid     = flag.Int("grid", 0, "t2vec: token lattice resolution (0 = feed raw normalized coordinates)")
		embedDim = flag.Int("embed-dim", 0, "t2vec: token-embedding width when -grid > 0 (0 = default)")
		maxLen   = flag.Int("maxlen", 0, "t2vec: truncate training trajectories for bounded BPTT (0 = default)")
		lr       = flag.Float64("lr", 0, "t2vec: Adam learning rate (0 = default)")

		measureName = flag.String("measure", "dtw", "rls: similarity measure (dtw, frechet, erp, edr, or t2vec with -t2vec-model)")
		modelPath   = flag.String("t2vec-model", "", "rls: t2vec model file (required with -measure t2vec)")
		k           = flag.Int("k", 0, "rls: skip actions (0 = RLS, >0 = RLS-Skip)")
		episodes    = flag.Int("episodes", 500, "rls: training episodes")
		pairs       = flag.Int("pairs", 200, "rls: training pair pool size")
		maxQLen     = flag.Int("maxqlen", 40, "rls: maximum query length in training pairs")
		noSuffix    = flag.Bool("no-suffix", false, "rls: drop the suffix state component (RLS-Skip+)")
	)
	flag.Parse()
	if *out == "" {
		log.Fatal("-out is required")
	}

	ts, err := loadOrGenerate(*data, *kindName, *n, *seed)
	if err != nil {
		log.Fatal(err)
	}
	verbose := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}

	switch *mode {
	case "t2vec":
		model, stats, err := t2vec.Train(ts, t2vec.TrainConfig{
			Hidden: *hidden, Epochs: *epochs, Seed: *seed, Verbose: verbose,
			TokenGrid: *grid, EmbedDim: *embedDim, MaxLen: *maxLen, LR: *lr,
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := model.SaveFile(*out); err != nil {
			log.Fatal(err)
		}
		// round-trip verification, mirroring the rls path: the file a simsubd
		// -encoder flag (or POST /v2/admin/encoder) will read must reload and
		// embed identically to the in-memory model
		reloaded, err := t2vec.LoadFile(*out)
		if err != nil {
			log.Fatalf("verifying saved encoder %s: %v", *out, err)
		}
		want, got := model.Embed(ts[0]), reloaded.Embed(ts[0])
		for i := range want {
			if want[i] != got[i] {
				log.Fatalf("verifying saved encoder %s: reloaded embedding diverges at dim %d (%g != %g)",
					*out, i, got[i], want[i])
			}
		}
		last := stats.EpochLoss[len(stats.EpochLoss)-1]
		fmt.Fprintf(os.Stderr, "saved t2vec encoder to %s (dim %d, grid %d, final loss %.6f; reload probe ok)\n",
			*out, reloaded.Dim(), reloaded.Grid(), last)

	case "rls":
		m, err := resolveMeasure(*measureName, *modelPath)
		if err != nil {
			log.Fatal(err)
		}
		ps := dataset.Pairs(ts, *pairs, 0, *maxQLen, *seed+13)
		datas := make([]traj.Trajectory, len(ps))
		queries := make([]traj.Trajectory, len(ps))
		for i, p := range ps {
			datas[i] = p.Data
			queries[i] = p.Query
		}
		useSuffix := *measureName != "t2vec" && !*noSuffix
		policy, stats, err := rl.Train(datas, queries, m, rl.Config{
			K: *k, UseSuffix: useSuffix, SimplifyState: *k > 0,
			Episodes: *episodes, Seed: *seed, Verbose: verbose,
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := policy.SaveFile(*out); err != nil {
			log.Fatal(err)
		}
		// round-trip verification: the file a simsubd -policy flag will read
		// must reload and validate; catching a serialization problem here
		// beats discovering it at server start
		reloaded, err := rl.LoadFile(*out)
		if err != nil {
			log.Fatalf("verifying saved policy %s: %v", *out, err)
		}
		probe := core.RLS{M: m, Policy: reloaded}
		r := probe.Search(datas[0], queries[0])
		fmt.Fprintf(os.Stderr, "saved %s policy to %s (k=%d suffix=%v, %d episodes in %s, recent reward %.4f; reload probe dist %.4f)\n",
			probe.Name(), *out, *k, useSuffix, *episodes, stats.Duration.Round(1e6), stats.MeanRecentReward(50), r.Dist)

	default:
		log.Fatalf("unknown mode %q", *mode)
	}
}

func loadOrGenerate(path, kindName string, n int, seed int64) ([]traj.Trajectory, error) {
	if path != "" {
		return traj.LoadCSV(path)
	}
	kind, err := dataset.KindByName(kindName)
	if err != nil {
		return nil, err
	}
	return dataset.Generate(dataset.Config{Kind: kind, N: n, Seed: seed}), nil
}

func resolveMeasure(name, modelPath string) (sim.Measure, error) {
	switch {
	case name != "t2vec":
		return sim.ByName(name)
	case modelPath == "":
		return nil, fmt.Errorf("-measure t2vec requires -t2vec-model (train one with -mode t2vec)")
	}
	return t2vec.LoadFile(modelPath)
}
