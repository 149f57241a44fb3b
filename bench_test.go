package simsub

// This file maps every table and figure of the paper's evaluation to a Go
// benchmark (see DESIGN.md §4 for the experiment index). Each benchmark
// drives the experiment harness at a small fixed scale so `go test -bench`
// terminates quickly; `cmd/experiments` runs the same experiments at
// configurable (up to paper) scale and prints the full tables.

import (
	"sync"
	"testing"

	"simsub/internal/bench"
	"simsub/internal/core"
	"simsub/internal/dataset"
	"simsub/internal/sim"
	"simsub/internal/traj"
)

var (
	suiteOnce sync.Once
	suite     *bench.Suite
)

// benchSuite returns the shared scaled-down experiment suite; policies and
// datasets are cached across benchmarks.
func benchSuite() *bench.Suite {
	suiteOnce.Do(func() {
		suite = bench.NewSuite(bench.Options{
			Pairs:       8,
			DatasetN:    60,
			DBSizes:     []int{20, 40},
			EffQueries:  2,
			TopK:        10,
			Episodes:    30,
			TrainPool:   20,
			T2vecEpochs: 1,
			MaxQueryLen: 20,
			Seed:        1,
		})
	})
	return suite
}

// --- Figure 3: effectiveness (AR/MR/RR) per measure -----------------------

func BenchmarkFig3Effectiveness(b *testing.B) {
	s := benchSuite()
	for _, measure := range bench.MeasureNames() {
		b.Run(measure, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.Fig3Effectiveness(dataset.Porto, measure); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 4 / Figure 10: efficiency, with and without the R-tree --------

func BenchmarkFig4Efficiency(b *testing.B) {
	s := benchSuite()
	for _, idx := range []struct {
		name string
		on   bool
	}{{"noindex", false}, {"rtree", true}} {
		b.Run(idx.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.Fig4Efficiency(dataset.Porto, "dtw", idx.on); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig10EfficiencyOtherDatasets(b *testing.B) {
	s := benchSuite()
	for _, kind := range []dataset.Kind{dataset.Harbin, dataset.Sports} {
		b.Run(kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.Fig4Efficiency(kind, "dtw", true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figures 5, 6, 11: query-length groups --------------------------------

func BenchmarkFig5QueryLenEffectiveness(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig5QueryLenEffectiveness(dataset.Harbin, "dtw"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6QueryLenEfficiency(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig6QueryLenEfficiency(dataset.Harbin, "dtw"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11GroupEffectivenessAllMeasures(b *testing.B) {
	s := benchSuite()
	for _, measure := range bench.MeasureNames() {
		b.Run(measure, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.Fig5QueryLenEffectiveness(dataset.Harbin, measure); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Table 5: skip parameter k ---------------------------------------------

func BenchmarkTable5SkipK(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		if _, err := s.Table5SkipK(dataset.Porto, "dtw", []int{0, 3}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 7 / Figure 12: SizeS soft margin ξ -----------------------------

func BenchmarkFig7SizeSXi(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig7SizeSXi(dataset.Porto, "dtw", []int{0, 2, 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 6: SimTra vs SimSub ---------------------------------------------

func BenchmarkTable6SimTra(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		if _, err := s.Table6SimTra([]dataset.Kind{dataset.Porto}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 8 / Figure 13: UCR and Spring vs RLS-Skip+ ---------------------

func BenchmarkFig8UCRSpring(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig8UCRSpring(dataset.Porto, []float64{0.2, 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 9 / Figure 14: Random-S ----------------------------------------

func BenchmarkFig9RandomS(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig9RandomS(dataset.Porto, []int{10, 50}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 7: training time -------------------------------------------------

func BenchmarkTable7Training(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		if _, err := s.Table7TrainingTime([]dataset.Kind{dataset.Porto}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 1: Φ / Φinc / Φini validation ------------------------------------
// Incremental extension must be ~O(m) for DTW/Fréchet and ~O(1) for t2vec,
// independent of the prefix length n. The per-op numbers across prefix
// lengths make the constant-vs-linear behaviour visible.

func BenchmarkIncrementalComplexity(b *testing.B) {
	s := benchSuite()
	data := dataset.Generate(dataset.Config{Kind: dataset.Porto, N: 1, Seed: 9, MinLen: 512, MaxLen: 512})[0]
	q := dataset.Generate(dataset.Config{Kind: dataset.Porto, N: 1, Seed: 10, MinLen: 64, MaxLen: 64})[0]
	for _, name := range bench.MeasureNames() {
		m, err := s.Measure(dataset.Porto, name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name+"/extend", func(b *testing.B) {
			inc := m.NewIncremental(data, q)
			inc.Init(0)
			j := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if j++; j >= data.Len()-1 {
					b.StopTimer()
					inc = m.NewIncremental(data, q)
					inc.Init(0)
					j = 0
					b.StartTimer()
				}
				inc.Extend()
			}
		})
		b.Run(name+"/scratch", func(b *testing.B) {
			sub := data.Sub(0, 255)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Dist(sub, q)
			}
		})
	}
}

// --- Table 2: algorithm scaling in n ----------------------------------------
// ExactS is O(n²·m) for DTW while the splitting algorithms are O(n·m); the
// per-size sub-benchmarks expose the quadratic vs linear growth.

func BenchmarkAlgoScaling(b *testing.B) {
	s := benchSuite()
	p, err := s.PolicyFor(dataset.Porto, "dtw", 0)
	if err != nil {
		b.Fatal(err)
	}
	q := dataset.Generate(dataset.Config{Kind: dataset.Porto, N: 1, Seed: 12, MinLen: 16, MaxLen: 16})[0]
	for _, n := range []int{32, 64, 128} {
		data := dataset.Generate(dataset.Config{Kind: dataset.Porto, N: 1, Seed: 11, MinLen: n, MaxLen: n})[0]
		for _, alg := range []core.Algorithm{
			core.ExactS{M: sim.DTW{}},
			core.SizeS{M: sim.DTW{}, Xi: 5},
			core.PSS{M: sim.DTW{}},
			core.POS{M: sim.DTW{}},
			core.RLS{M: sim.DTW{}, Policy: p},
		} {
			b.Run(alg.Name()+"/n="+itoa(n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					alg.Search(data, q)
				}
			})
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// --- Ablations (DESIGN.md §5) ------------------------------------------------

func BenchmarkAblationSuffix(b *testing.B) {
	// PSS (with suffix) vs POS (without): the cost of the suffix component
	data := dataset.Generate(dataset.Config{Kind: dataset.Porto, N: 1, Seed: 13, MinLen: 128, MaxLen: 128})[0]
	q := dataset.Generate(dataset.Config{Kind: dataset.Porto, N: 1, Seed: 14, MinLen: 32, MaxLen: 32})[0]
	b.Run("PSS", func(b *testing.B) {
		alg := core.PSS{M: sim.DTW{}}
		for i := 0; i < b.N; i++ {
			alg.Search(data, q)
		}
	})
	b.Run("POS", func(b *testing.B) {
		alg := core.POS{M: sim.DTW{}}
		for i := 0; i < b.N; i++ {
			alg.Search(data, q)
		}
	})
}

func BenchmarkAblationDelay(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		if _, err := s.AblationDelay(dataset.Porto, "dtw", []int{0, 5}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationIncremental(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		if _, err := s.AblationIncremental(dataset.Porto, "dtw"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSkipState(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		if _, err := s.AblationSkipState(dataset.Porto, "dtw"); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks of the individual primitives ---------------------------

func BenchmarkMeasureDist(b *testing.B) {
	data := RandomWalk(128, 0.02, 15)
	q := RandomWalk(32, 0.02, 16)
	for _, m := range []sim.Measure{sim.DTW{}, sim.Frechet{}, sim.ERP{}, sim.EDR{Eps: 0.1}, sim.EDS{}, sim.EDwP{}} {
		b.Run(m.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.Dist(data, q)
			}
		})
	}
}

func BenchmarkSpringVsExact(b *testing.B) {
	data := RandomWalk(256, 0.02, 17)
	q := RandomWalk(32, 0.02, 18)
	b.Run("Spring", func(b *testing.B) {
		alg := core.Spring{}
		for i := 0; i < b.N; i++ {
			alg.Search(data, q)
		}
	})
	b.Run("ExactS", func(b *testing.B) {
		alg := core.ExactS{M: sim.DTW{}}
		for i := 0; i < b.N; i++ {
			alg.Search(data, q)
		}
	})
}

func BenchmarkUCRPruning(b *testing.B) {
	data := RandomWalk(512, 0.02, 19)
	q := RandomWalk(32, 0.02, 20)
	for _, r := range []float64{0.1, 0.5, 1} {
		b.Run("R="+fmtFloat(r), func(b *testing.B) {
			alg := core.UCR{Band: r}
			for i := 0; i < b.N; i++ {
				alg.Search(data, q)
			}
		})
	}
}

func fmtFloat(r float64) string {
	switch r {
	case 0.1:
		return "0.1"
	case 0.5:
		return "0.5"
	default:
		return "1"
	}
}

func BenchmarkRTreeTopK(b *testing.B) {
	var ts []traj.Trajectory
	for i := 0; i < 200; i++ {
		ts = append(ts, RandomWalk(40, 0.005, int64(i+1)))
	}
	q := ts[7].Sub(5, 12)
	alg := core.PSS{M: sim.DTW{}}
	b.Run("noindex", func(b *testing.B) {
		db := core.NewDatabase(ts, false)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			db.TopK(alg, q, 10)
		}
	})
	b.Run("rtree", func(b *testing.B) {
		db := core.NewDatabase(ts, true)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			db.TopK(alg, q, 10)
		}
	})
}
