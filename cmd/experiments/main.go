// Command experiments regenerates the tables and figures of the paper's
// evaluation (§6 and Appendix D) on the synthetic datasets and prints them
// as text tables. DESIGN.md §4 maps each experiment id to its
// implementation. No reference run is committed yet: ROADMAP item 3(c)
// asks for one.
//
// Usage:
//
//	experiments -exp all                 # everything, default scale
//	experiments -exp fig3 -pairs 200     # one experiment, larger scale
//
// Experiment ids: fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 table5
// table6 table7 ablations cdtw all
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"simsub/internal/bench"
	"simsub/internal/dataset"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	var (
		exp      = flag.String("exp", "all", "experiment id (fig3..fig11, table5..table7, ablations, all)")
		pairs    = flag.Int("pairs", 30, "effectiveness pairs per configuration (paper: 10000)")
		datasetN = flag.Int("datasetn", 150, "trajectories per synthetic dataset")
		episodes = flag.Int("episodes", 150, "DQN training episodes per policy")
		seed     = flag.Int64("seed", 1, "random seed")
		quiet    = flag.Bool("quiet", false, "suppress progress output")
	)
	flag.Parse()

	opts := bench.Options{
		Pairs:    *pairs,
		DatasetN: *datasetN,
		Episodes: *episodes,
		Seed:     *seed,
	}
	if !*quiet {
		opts.Verbose = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	s := bench.NewSuite(opts)

	ids := strings.Split(*exp, ",")
	if *exp == "all" {
		ids = []string{"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "table5", "table6", "table7", "ablations", "cdtw"}
	}
	for _, id := range ids {
		if err := run(s, strings.TrimSpace(id)); err != nil {
			log.Fatalf("%s: %v", id, err)
		}
	}
}

func run(s *bench.Suite, id string) error {
	emit := func(t bench.Table, err error) error {
		if err != nil {
			return err
		}
		fmt.Println(t.Format())
		return nil
	}
	switch id {
	case "fig3":
		for _, kind := range []dataset.Kind{dataset.Porto, dataset.Harbin} {
			for _, m := range bench.MeasureNames() {
				if err := emit(s.Fig3Effectiveness(kind, m)); err != nil {
					return err
				}
			}
		}
	case "fig4":
		for _, withIndex := range []bool{false, true} {
			for _, m := range bench.MeasureNames() {
				if err := emit(s.Fig4Efficiency(dataset.Porto, m, withIndex)); err != nil {
					return err
				}
			}
		}
	case "fig10":
		for _, kind := range []dataset.Kind{dataset.Harbin, dataset.Sports} {
			for _, withIndex := range []bool{false, true} {
				if err := emit(s.Fig4Efficiency(kind, "dtw", withIndex)); err != nil {
					return err
				}
			}
		}
	case "fig5":
		for _, m := range bench.MeasureNames() {
			if err := emit(s.Fig5QueryLenEffectiveness(dataset.Porto, m)); err != nil {
				return err
			}
		}
	case "fig11":
		for _, kind := range []dataset.Kind{dataset.Porto, dataset.Harbin} {
			for _, m := range bench.MeasureNames() {
				if err := emit(s.Fig5QueryLenEffectiveness(kind, m)); err != nil {
					return err
				}
			}
		}
	case "fig6":
		for _, m := range bench.MeasureNames() {
			if err := emit(s.Fig6QueryLenEfficiency(dataset.Porto, m)); err != nil {
				return err
			}
		}
	case "fig7", "fig12":
		return emit(s.Fig7SizeSXi(dataset.Porto, "dtw", nil))
	case "fig8", "fig13":
		return emit(s.Fig8UCRSpring(dataset.Porto, nil))
	case "fig9", "fig14":
		return emit(s.Fig9RandomS(dataset.Porto, nil))
	case "table5":
		return emit(s.Table5SkipK(dataset.Porto, "dtw", nil))
	case "table6":
		return emit(s.Table6SimTra(nil))
	case "table7":
		return emit(s.Table7TrainingTime(nil))
	case "ablations":
		if err := emit(s.AblationDelay(dataset.Porto, "dtw", nil)); err != nil {
			return err
		}
		if err := emit(s.AblationIncremental(dataset.Porto, "dtw")); err != nil {
			return err
		}
		return emit(s.AblationSkipState(dataset.Porto, "dtw"))
	case "cdtw":
		return emit(s.FutureWorkCDTW(dataset.Porto, 0.25))
	default:
		return fmt.Errorf("unknown experiment id %q", id)
	}
	return nil
}
