package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/estimator"
)

// AblationPoint is one configuration of an ablation sweep.
type AblationPoint struct {
	// Setting describes the varied knob (e.g. "pairs=2").
	Setting string
	// Found reports whether the search met the targets.
	Found bool
	// Speedup of the best model (1 when !Found).
	Speedup float64
	// SearchSeconds spent.
	SearchSeconds float64
	// Elites accepted.
	Elites int
}

// RunAblationPairsPerPass sweeps the MaxPairsPerPass knob (how many node
// pairs one mutation pass applies) on B1: more pairs per pass explores more
// aggressive mutations per round at the cost of lower acceptance.
func RunAblationPairsPerPass(sc Scale, drop float64, values []int) ([]AblationPoint, error) {
	spec, err := SpecByID("B1")
	if err != nil {
		return nil, err
	}
	w, err := Build(spec, sc)
	if err != nil {
		return nil, err
	}
	origLat := estimator.Latency(w.Teacher, latOpts)
	var out []AblationPoint
	for _, v := range values {
		opt := core.NewOptimizer(w.Teacher, w.Dataset, w.Targets(drop), w.Outputs, w.Dataset.Train.X,
			w.accOptions(VariantPlain), core.Config{
				Rounds:          sc.Rounds,
				MaxPairsPerPass: v,
				Seed:            sc.Seed ^ uint64(v),
				Latency:         latOpts,
			})
		res := opt.Run()
		p := AblationPoint{
			Setting:       fmt.Sprintf("pairs=%d", v),
			SearchSeconds: res.SearchTime.Seconds(),
			Elites:        len(res.Elites),
			Speedup:       1,
		}
		if res.Best != nil {
			p.Found = true
			p.Speedup = float64(origLat) / float64(res.Best.Latency)
		}
		out = append(out, p)
	}
	return out, nil
}

// RunAblationEliteCapacity sweeps N_i, the elite list capacity of the SA
// policy (paper default 16).
func RunAblationEliteCapacity(sc Scale, drop float64, values []int) ([]AblationPoint, error) {
	spec, err := SpecByID("B1")
	if err != nil {
		return nil, err
	}
	w, err := Build(spec, sc)
	if err != nil {
		return nil, err
	}
	origLat := estimator.Latency(w.Teacher, latOpts)
	var out []AblationPoint
	for _, v := range values {
		pol := core.NewSAPolicy()
		pol.MaxElites = v
		opt := core.NewOptimizer(w.Teacher, w.Dataset, w.Targets(drop), w.Outputs, w.Dataset.Train.X,
			w.accOptions(VariantPlain), core.Config{
				Rounds:  sc.Rounds,
				Policy:  pol,
				Seed:    sc.Seed ^ uint64(0xE11+v),
				Latency: latOpts,
			})
		res := opt.Run()
		p := AblationPoint{
			Setting:       fmt.Sprintf("elites=%d", v),
			SearchSeconds: res.SearchTime.Seconds(),
			Elites:        len(res.Elites),
			Speedup:       1,
		}
		if res.Best != nil {
			p.Found = true
			p.Speedup = float64(origLat) / float64(res.Best.Latency)
		}
		out = append(out, p)
	}
	return out, nil
}

// FormatAblation renders an ablation sweep.
func FormatAblation(title string, points []AblationPoint) string {
	s := title + "\n"
	for _, p := range points {
		s += fmt.Sprintf("  %-12s speedup %.2fx  search %.1fs  elites %d  found=%v\n",
			p.Setting, p.Speedup, p.SearchSeconds, p.Elites, p.Found)
	}
	return s
}
