package core_test

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/estimator"
)

// goldenRound is the latency-independent record of one search round.
type goldenRound struct {
	iteration   int
	fingerprint string
	outcome     string
	rule        string
	epochs      int
	cacheHit    bool
	warm        bool
	fromElite   bool
}

// serialGolden is the trajectory of the paper's serial loop (one candidate
// per round, fine-tuned in place) on smallWorld, recorded before the loop
// was folded into the batched one. It exercises every filter: capacity-rule
// skips, memo replays of met and failed candidates, and warm-started
// fine-tunes of elite-derived candidates.
var serialGolden = []goldenRound{
	{1, "9e1654ed7d58ea6b", "rejected", "accuracy-budget", 6, false, false, false},
	{2, "0fef346b2a0781ad", "accepted", "accuracy-met", 4, false, false, false},
	{3, "f6b6fbce3fe77ab5", "rejected", "accuracy-budget", 3, false, true, true},
	{4, "e70b566aa2ce248c", "rejected", "accuracy-budget", 6, false, false, false},
	{5, "0fef346b2a0781ad", "accepted", "memo-replay", 4, true, false, false},
	{6, "", "skipped", "capacity-rule", 0, false, false, false},
	{7, "e70b566aa2ce248c", "rejected", "memo-replay", 6, true, false, false},
	{8, "f6b6fbce3fe77ab5", "rejected", "memo-replay", 3, true, true, false},
	{9, "2bb5f528066d7591", "rejected", "accuracy-budget", 6, false, false, false},
	{10, "8667a8556f8aafd7", "accepted", "accuracy-met", 6, false, false, false},
	{11, "", "skipped", "capacity-rule", 0, false, false, true},
	{12, "", "skipped", "capacity-rule", 0, false, false, false},
	{13, "8dd0661812908231", "rejected", "accuracy-budget", 6, false, false, false},
	{14, "", "skipped", "capacity-rule", 0, false, false, false},
	{15, "8dd0661812908231", "rejected", "memo-replay", 6, true, false, false},
	{16, "e70b566aa2ce248c", "rejected", "memo-replay", 6, true, false, false},
	{17, "", "skipped", "capacity-rule", 0, false, false, false},
	{18, "", "skipped", "capacity-rule", 0, false, false, false},
	{19, "", "skipped", "capacity-rule", 0, false, false, false},
	{20, "8b28ee72189cc271", "rejected", "accuracy-budget", 6, false, false, false},
	{21, "", "skipped", "capacity-rule", 0, false, false, false},
	{22, "", "skipped", "capacity-rule", 0, false, false, false},
	{23, "", "skipped", "capacity-rule", 0, false, false, false},
	{24, "", "skipped", "capacity-rule", 0, false, false, false},
	{25, "8667a8556f8aafd7", "accepted", "memo-replay", 6, true, false, false},
	{26, "", "skipped", "capacity-rule", 0, false, false, true},
	{27, "e70b566aa2ce248c", "rejected", "memo-replay", 6, true, false, false},
	{28, "9dd88b2afa597040", "rejected", "accuracy-budget", 6, false, false, false},
	{29, "8b28ee72189cc271", "rejected", "memo-replay", 6, true, false, false},
	{30, "8667a8556f8aafd7", "accepted", "memo-replay", 6, true, false, false},
	{31, "ded63638dc4f3a62", "rejected", "accuracy-budget", 3, false, true, true},
	{32, "", "skipped", "capacity-rule", 0, false, false, false},
}

// serialGoldenElites are the surviving elites' (Iteration, FLOPs).
var serialGoldenElites = [][2]int64{
	{5, 265080},
	{10, 265080},
	{25, 265080},
	{30, 265080},
}

// serialGoldenStats are the same run's counters.
var serialGoldenStats = core.SearchStats{
	CacheHits: 9, CacheMisses: 10, LatencyHits: 3, LatencyMisses: 2,
	WarmStarted: 2, SkippedByRule: 13, FineTuned: 10, TotalEpochs: 52,
}

// TestSerialTrajectoryGolden pins the search loop at BatchSize 1 to the
// serial trajectory above, round by round. The golden was recorded on amd64
// and is identical under the AVX2 and pure-Go kernel tiers; other
// architectures may fuse multiply-adds and round differently, so they skip.
func TestSerialTrajectoryGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden recorded on amd64, not %s", runtime.GOARCH)
	}
	w := smallWorld()
	res := w.optimizer(core.Config{
		Rounds:          32,
		MaxPairsPerPass: 1,
		Seed:            11,
		Policy:          &core.SAPolicy{InitialTemp: 1, Alpha: 0.9, MaxElites: 4},
		Latency:         estimator.LatencyOptions{Batch: 2, Warmup: 1, Runs: 2},
	}).Run()

	if len(res.Decisions) != len(serialGolden) || len(res.Traces) != len(serialGolden) {
		t.Fatalf("%d decisions / %d traces, golden has %d rounds",
			len(res.Decisions), len(res.Traces), len(serialGolden))
	}
	for i, want := range serialGolden {
		d, tr := res.Decisions[i], res.Traces[i]
		got := goldenRound{d.Iteration, d.Fingerprint, d.Outcome, d.Rule, d.EpochsRun, d.CacheHit, d.Warm, tr.FromElite}
		if got != want {
			t.Fatalf("round %d:\ngot  %+v\nwant %+v", i, got, want)
		}
		if tr.Iteration != d.Iteration || tr.EpochsRun != d.EpochsRun || tr.CacheHit != d.CacheHit {
			t.Fatalf("round %d: trace %+v disagrees with decision %+v", i, tr, d)
		}
	}
	if len(res.Elites) != len(serialGoldenElites) {
		t.Fatalf("%d elites, golden has %d", len(res.Elites), len(serialGoldenElites))
	}
	for i, want := range serialGoldenElites {
		if got := [2]int64{int64(res.Elites[i].Iteration), res.Elites[i].FLOPs}; got != want {
			t.Fatalf("elite %d is (iter, FLOPs) %v, golden %v", i, got, want)
		}
	}
	if res.Stats != serialGoldenStats || res.Evaluated != len(serialGolden) {
		t.Fatalf("stats %+v (%d evaluated), golden %+v", res.Stats, res.Evaluated, serialGoldenStats)
	}
}
