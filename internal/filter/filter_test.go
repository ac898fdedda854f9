package filter

import (
	"math"
	"testing"

	"repro/internal/distill"
	"repro/internal/graph"
	"repro/internal/mutation"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

func profile(total, shared int64, perTask ...int64) graph.CapacityProfile {
	p := graph.CapacityProfile{
		Total: total, Shared: shared,
		TaskTotal:    make(map[int]int64),
		TaskSpecific: make(map[int]int64),
	}
	for i, v := range perTask {
		p.TaskTotal[i] = v
		p.TaskSpecific[i] = v - shared
		if p.TaskSpecific[i] < 0 {
			p.TaskSpecific[i] = 0
		}
	}
	return p
}

func TestRuleBasedSkipsMoreAggressive(t *testing.T) {
	r := NewRuleBased()
	failed := profile(100, 20, 60, 60)
	r.RecordFailure(failed)
	if r.Failures() != 1 {
		t.Fatalf("Failures = %d", r.Failures())
	}

	aggressive := profile(80, 40, 55, 55)
	if !r.ShouldSkip(aggressive) {
		t.Fatal("strictly more aggressive profile must be skipped")
	}
	conservative := profile(120, 10, 70, 70)
	if r.ShouldSkip(conservative) {
		t.Fatal("less aggressive profile must not be skipped")
	}
	// Equal profile is not strictly more aggressive.
	if r.ShouldSkip(failed) {
		t.Fatal("identical profile must not be skipped")
	}
}

// On real mutation passes: once a candidate sharing the first blocks of two
// branches fails, one that shares the next blocks too is strictly more
// aggressive and is skipped, while the original graph is not.
func TestRuleBasedSkipsDeeperSharingOfFailure(t *testing.T) {
	ds := testutil.TinyFace(7, 8, 8)
	teacher := testutil.TinyMultiDNN(8, ds)
	mut := mutation.NewMutator(tensor.NewRNG(10))
	mild, err := mut.Apply(teacher, []graph.Pair{{
		Host:  mutation.FindNode(teacher, 0, 1),
		Guest: mutation.FindNode(teacher, 1, 1),
	}})
	if err != nil {
		t.Fatal(err)
	}
	aggressive, err := mut.Apply(mild.Graph, []graph.Pair{{
		Host:  mutation.FindNode(mild.Graph, 0, 2),
		Guest: mutation.FindNode(mild.Graph, 1, 2),
	}})
	if err != nil {
		t.Fatal(err)
	}
	profile := func(g *graph.Graph) graph.CapacityProfile {
		g.RefreshCapacities()
		return g.Capacity()
	}
	r := NewRuleBased()
	if r.ShouldSkip(profile(mild.Graph)) {
		t.Fatal("empty history skipped the first candidate")
	}
	r.RecordFailure(profile(mild.Graph))
	if !r.ShouldSkip(profile(aggressive.Graph)) {
		t.Fatal("more aggressive candidate not skipped after the milder one failed")
	}
	if r.ShouldSkip(profile(teacher)) {
		t.Fatal("the unshared original must not be skipped")
	}
}

func TestRuleBasedEmptyHistoryNeverSkips(t *testing.T) {
	r := NewRuleBased()
	if r.ShouldSkip(profile(1, 1, 1)) {
		t.Fatal("empty history must never skip")
	}
}

func TestExtrapolateGeometricConvergence(t *testing.T) {
	// f_k = 1 - 0.5^k converges to 1.
	f := [4]float64{0.5, 0.75, 0.875, 0.9375}
	got := ExtrapolateConvergence(f, 50)
	if math.Abs(got-1) > 1e-3 {
		t.Fatalf("extrapolated %v, want ~1", got)
	}
}

func TestExtrapolateZeroStepsReturnsLast(t *testing.T) {
	f := [4]float64{0.1, 0.2, 0.3, 0.4}
	if got := ExtrapolateConvergence(f, 0); got != 0.4 {
		t.Fatalf("got %v, want 0.4", got)
	}
}

func TestExtrapolateFlatSequence(t *testing.T) {
	f := [4]float64{0.7, 0.7, 0.7, 0.7}
	if got := ExtrapolateConvergence(f, 10); got != 0.7 {
		t.Fatalf("flat sequence extrapolated to %v", got)
	}
}

func TestExtrapolateDivergentCapped(t *testing.T) {
	// Growing differences: extension must be bounded (linear, few steps).
	f := [4]float64{0, 1, 3, 7}
	got := ExtrapolateConvergence(f, 100)
	if got > 7+4*3+1e-9 {
		t.Fatalf("divergent extrapolation unbounded: %v", got)
	}
	if got <= 7 {
		t.Fatalf("divergent upward sequence should extend upward, got %v", got)
	}
}

func TestEarlyTerminationHook(t *testing.T) {
	hook := EarlyTermination{TotalEpochs: 50}.Hook()

	// Fewer than 4 samples: never terminate.
	curve := []distill.Sample{{Epoch: 5, MinMargin: -0.5}}
	if hook(curve) {
		t.Fatal("terminated with < 4 samples")
	}

	// Margin converging to ~-0.2: predicted final < 0, terminate.
	badCurve := []distill.Sample{
		{Epoch: 5, MinMargin: -0.60},
		{Epoch: 10, MinMargin: -0.40},
		{Epoch: 15, MinMargin: -0.30},
		{Epoch: 20, MinMargin: -0.25},
	}
	if !hook(badCurve) {
		t.Fatal("non-promising curve not terminated")
	}

	// Margin converging upward through zero: predicted final >= 0, keep.
	goodCurve := []distill.Sample{
		{Epoch: 5, MinMargin: -0.40},
		{Epoch: 10, MinMargin: -0.15},
		{Epoch: 15, MinMargin: -0.05},
		{Epoch: 20, MinMargin: -0.01},
	}
	if hook(goodCurve) {
		t.Fatal("promising curve terminated")
	}

	// Before MinEpochFraction of the budget, even a bad curve survives.
	early := EarlyTermination{TotalEpochs: 1000}.Hook()
	if early(badCurve) {
		t.Fatal("terminated before the minimum epoch fraction")
	}
}

func TestEarlyTerminationSlack(t *testing.T) {
	// Converging to about -0.05: with enough slack the run survives.
	curve := []distill.Sample{
		{Epoch: 2, MinMargin: -0.29},
		{Epoch: 4, MinMargin: -0.17},
		{Epoch: 6, MinMargin: -0.11},
		{Epoch: 8, MinMargin: -0.08},
	}
	strict := EarlyTermination{TotalEpochs: 20}.Hook()
	lenient := EarlyTermination{TotalEpochs: 20, Slack: 0.2}.Hook()
	if !strict(curve) {
		t.Fatal("strict hook should terminate a curve converging below 0")
	}
	if lenient(curve) {
		t.Fatal("lenient hook should keep a curve within slack")
	}
}
