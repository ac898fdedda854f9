package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/estimator"
)

// TestOptimizerDeterministicAcrossSlots guards the evaluation phase: the
// batched search must visit the same candidate sequence and produce the
// same Result for any evaluator slot count, because slots only control
// evaluation concurrency while sampling, filtering, and merging run
// serially. A regression here means some search state leaked into the
// parallel phase (or a tensor kernel became chunking-dependent).
//
// 2 slots with BatchSize=4 is the load-bearing case for -race: it is the
// only configuration here where an estimator slot is reused while other
// evaluations are still in flight, so a slot-sharing bug (two goroutines on
// one estimator) shows up in this test and in neither the 1-slot nor the
// 4-slot (== BatchSize) runs.
func TestOptimizerDeterministicAcrossSlots(t *testing.T) {
	run := func(slots int) *core.Result {
		w := smallWorld()
		return w.optimizer(core.Config{
			// MaxPairsPerPass 1 keeps the candidate space small enough that
			// the fixed-seed search re-samples structures, so the memo cache
			// participates in the determinism contract.
			Rounds:          16,
			MaxPairsPerPass: 1,
			Seed:            7,
			BatchSize:       4,
			Evaluator:       w.evaluator(slots),
			Latency:         estimator.LatencyOptions{Batch: 2, Warmup: 1, Runs: 2},
		}).Run()
	}

	serial := run(1)
	if serial.Stats.CacheHits == 0 {
		t.Fatal("fixture produced no cache hits; the test no longer covers memoization")
	}
	for _, slots := range []int{2, 4} {
		parallel := run(slots)
		compareResults(t, slots, serial, parallel)
	}
}

// compareResults asserts a parallel run matches the 1-slot reference in
// every search-determined field.
func compareResults(t *testing.T, slots int, serial, parallel *core.Result) {
	t.Helper()
	if serial.Evaluated != parallel.Evaluated {
		t.Fatalf("Evaluated differs: 1 slot got %d, %d slots got %d", serial.Evaluated, slots, parallel.Evaluated)
	}
	if len(serial.Traces) != len(parallel.Traces) {
		t.Fatalf("%d slots: trace count differs: %d vs %d", slots, len(serial.Traces), len(parallel.Traces))
	}
	for i := range serial.Traces {
		s, p := serial.Traces[i], parallel.Traces[i]
		if s.Iteration != p.Iteration || s.Skipped != p.Skipped || s.FromElite != p.FromElite ||
			s.Met != p.Met || s.Terminated != p.Terminated || s.EpochsRun != p.EpochsRun ||
			s.CacheHit != p.CacheHit || s.WarmStarted != p.WarmStarted {
			t.Fatalf("%d slots: trace %d differs:\n1 slot: %+v\n%d slots: %+v", slots, i, s, slots, p)
		}
	}
	// Cache consultations, rule skips, warm starts, and epoch totals all
	// happen in the serial phases, so the aggregated stats are part of the
	// determinism contract.
	if serial.Stats != parallel.Stats {
		t.Fatalf("Stats differ:\n1 slot: %+v\n%d slots: %+v", serial.Stats, slots, parallel.Stats)
	}
	if len(serial.Elites) != len(parallel.Elites) {
		t.Fatalf("%d slots: elite count differs: %d vs %d", slots, len(serial.Elites), len(parallel.Elites))
	}
	for i := range serial.Elites {
		s, p := serial.Elites[i], parallel.Elites[i]
		if s.Iteration != p.Iteration || s.FLOPs != p.FLOPs || s.FromElite != p.FromElite {
			t.Fatalf("%d slots: elite %d differs: iter %d/%d flops %d/%d", slots, i, s.Iteration, p.Iteration, s.FLOPs, p.FLOPs)
		}
		for id, acc := range s.Accuracy {
			if d := acc - p.Accuracy[id]; d > 1e-9 || d < -1e-9 {
				t.Fatalf("%d slots: elite %d task %d accuracy differs: %.9f vs %.9f", slots, i, id, acc, p.Accuracy[id])
			}
		}
	}
	// Best is ranked by measured wall-clock latency, so its identity is
	// legitimately noisy; only its presence is search-determined.
	if (serial.Best == nil) != (parallel.Best == nil) {
		t.Fatalf("Best presence differs: 1 slot %v, %d slots %v", serial.Best != nil, slots, parallel.Best != nil)
	}
}
