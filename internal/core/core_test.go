package core_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/search/explain"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

func TestSAPolicyProbabilityEvolution(t *testing.T) {
	p := core.NewSAPolicy()
	if p.P() != 0 {
		t.Fatalf("initial p = %v, want 0", p.P())
	}
	// No elites: p stays 0 regardless of observations.
	p.Observe(1, 0, false, 0)
	if p.P() != 0 {
		t.Fatalf("p with 0 elites = %v", p.P())
	}
	// With elites, p grows as iterations advance (temperature cools).
	p.Observe(1, 0, true, 4)
	early := p.P()
	p.Observe(200, 0, true, 4)
	late := p.P()
	if !(late > early) {
		t.Fatalf("p must grow as temperature cools: early %v late %v", early, late)
	}
	// More elites increase p.
	p.Observe(200, 0, true, 16)
	more := p.P()
	if !(more > late) {
		t.Fatalf("p must grow with elite count: %v vs %v", more, late)
	}
	// Larger accuracy drop decreases p.
	p.Observe(200, 0.9, true, 16)
	dropped := p.P()
	if !(dropped < more) {
		t.Fatalf("p must shrink with accuracy drop: %v vs %v", dropped, more)
	}
	if p.P() < 0 || p.P() > 1 {
		t.Fatalf("p out of [0,1]: %v", p.P())
	}
}

func TestSAPolicyPickBase(t *testing.T) {
	pol := core.NewSAPolicy()
	rng := tensor.NewRNG(1)
	ds := testutil.TinyFace(2, 8, 8)
	orig := testutil.TinyMultiDNN(3, ds)
	elite := &core.Elite{Graph: testutil.TinyMultiDNN(4, ds)}

	// p == 0: always the original.
	for i := 0; i < 10; i++ {
		if pol.PickBase(orig, []*core.Elite{elite}, rng) != orig {
			t.Fatal("p=0 must pick the original")
		}
	}
	// Force p high via many elites at late iteration, low drop.
	pol.Observe(500, 0, true, 16)
	var picked int
	for i := 0; i < 200; i++ {
		if pol.PickBase(orig, []*core.Elite{elite}, rng) == elite.Graph {
			picked++
		}
	}
	if picked == 0 {
		t.Fatal("high p never exploited an elite")
	}
	want := pol.P()
	got := float64(picked) / 200
	if math.Abs(got-want) > 0.15 {
		t.Fatalf("exploit rate %v too far from p %v", got, want)
	}
}

func TestRandomPolicyAlwaysOriginal(t *testing.T) {
	pol := core.RandomPolicy{}
	rng := tensor.NewRNG(5)
	ds := testutil.TinyFace(6, 8, 8)
	orig := testutil.TinyMultiDNN(7, ds)
	elite := &core.Elite{Graph: testutil.TinyMultiDNN(8, ds)}
	pol.Observe(100, 0, true, 16)
	for i := 0; i < 20; i++ {
		if pol.PickBase(orig, []*core.Elite{elite}, rng) != orig {
			t.Fatal("random policy must always pick the original")
		}
	}
}

func TestOptimizerFindsFasterModel(t *testing.T) {
	w := buildFixture(t)
	opt := w.optimizer(core.Config{
		Rounds:          10,
		MaxPairsPerPass: 2,
		Seed:            7,
		Latency:         estimator.LatencyOptions{Batch: 2, Warmup: 1, Runs: 3},
	})
	res := opt.Run()
	if res.Best == nil {
		t.Fatal("search found no model meeting the targets")
	}
	if res.Best.FLOPs >= w.teacher.FLOPs() {
		t.Fatalf("best model FLOPs %d not below original %d", res.Best.FLOPs, w.teacher.FLOPs())
	}
	if err := res.Best.Graph.Validate(); err != nil {
		t.Fatalf("best model invalid: %v", err)
	}
	if len(res.Traces) == 0 || res.SearchTime <= 0 {
		t.Fatal("trace bookkeeping broken")
	}
	// Traces record monotonically improving best latency once set.
	var last float64 = math.Inf(1)
	for _, tr := range res.Traces {
		if tr.BestLatency > 0 {
			if float64(tr.BestLatency) > last*1.0001 {
				t.Fatal("best latency regressed in trace")
			}
			last = float64(tr.BestLatency)
		}
	}
	// The original graph must be untouched by the search.
	if err := w.teacher.Validate(); err != nil {
		t.Fatalf("search corrupted the original graph: %v", err)
	}
}

func TestOptimizerRespectsTimeBudget(t *testing.T) {
	w := buildFixture(t)
	opt := w.optimizer(core.Config{
		Rounds:     1000,
		Seed:       9,
		TimeBudget: 1, // nanosecond: stop immediately
	})
	res := opt.Run()
	if len(res.Traces) > 1 {
		t.Fatalf("time budget ignored: %d rounds ran", len(res.Traces))
	}
}

func TestOptimizerOnRoundCallback(t *testing.T) {
	w := buildFixture(t)
	var calls int
	opt := w.optimizer(core.Config{
		Rounds: 3,
		Seed:   11,
		OnRound: func(tr core.Trace) {
			calls++
			if tr.Iteration == 0 {
				t.Error("trace iteration must be 1-based")
			}
		},
		Latency: estimator.LatencyOptions{Batch: 2, Warmup: 1, Runs: 3},
	})
	res := opt.Run()
	if calls != len(res.Traces) {
		t.Fatalf("OnRound called %d times for %d traces", calls, len(res.Traces))
	}
}

// The search must never recommend a model slower than the original: with a
// latency-inflating candidate space the result is "no best", not a
// regression.
func TestOptimizerNeverRegressesBelowIncumbent(t *testing.T) {
	w := buildFixture(t)
	opt := w.optimizer(core.Config{
		Rounds:  8,
		Seed:    21,
		Latency: estimator.LatencyOptions{Batch: 2, Warmup: 1, Runs: 3},
	})
	res := opt.Run()
	if res.Best != nil && res.Best.FLOPs > w.teacher.FLOPs() {
		t.Fatalf("best model costs %d FLOPs, original %d", res.Best.FLOPs, w.teacher.FLOPs())
	}
}

func TestBatchedOptimizerFindsFasterModel(t *testing.T) {
	w := newWorld(141, 96, 48, 8, 0.12, plainOpts)
	opt := w.optimizer(core.Config{
		Rounds:    8,
		Seed:      7,
		BatchSize: 4,
		Evaluator: w.evaluator(2),
		Latency:   estimator.LatencyOptions{Batch: 2, Warmup: 1, Runs: 3},
	})
	res := opt.Run()
	if res.Evaluated == 0 {
		t.Fatal("no candidates evaluated")
	}
	if res.Best == nil {
		t.Fatal("batched search found no model meeting the targets")
	}
	if err := res.Best.Graph.Validate(); err != nil {
		t.Fatalf("best model invalid: %v", err)
	}
	if res.Best.FLOPs >= w.teacher.FLOPs() {
		t.Fatal("best model does not reduce FLOPs")
	}
	// Accuracy meets targets.
	for id, target := range w.targets {
		if res.Best.Accuracy[id] < target {
			t.Fatalf("task %d accuracy %.3f below target %.3f", id, res.Best.Accuracy[id], target)
		}
	}
	if err := w.teacher.Validate(); err != nil {
		t.Fatalf("batched search corrupted the original: %v", err)
	}
}

// Rounds is the candidate budget whatever the batch size: a batch size that
// does not divide it ends on a partial batch, so the search consumes exactly
// the iterations a resumed schedule will skip past.
func TestOptimizerRunsExactlyRounds(t *testing.T) {
	w := smallWorld()
	res := w.optimizer(core.Config{
		Rounds:          10,
		MaxPairsPerPass: 1,
		Seed:            7,
		BatchSize:       4,
		StartIteration:  20,
		Latency:         estimator.LatencyOptions{Batch: 2, Warmup: 1, Runs: 2},
	}).Run()
	if len(res.Traces) != 10 || res.Evaluated != 10 {
		t.Fatalf("ran %d rounds (%d evaluated), want 10", len(res.Traces), res.Evaluated)
	}
	for i, tr := range res.Traces {
		if tr.Iteration != 21+i {
			t.Fatalf("round %d numbered %d, want %d", i, tr.Iteration, 21+i)
		}
	}
}

// The capacity-rule filter lives in the search loop: with targets no
// candidate can meet, every fine-tuned candidate fails and feeds the rule
// history, and a later candidate whose sharing is strictly more aggressive
// than a failure is skipped without fine-tuning. Stats count both.
func TestOptimizerRuleFilterAndStats(t *testing.T) {
	w := smallWorld()
	w.targets = map[int]float64{0: 2, 1: 2}
	w.accOpts.FineTune.Epochs = 2
	run := func(rule bool) *core.Result {
		w.accOpts.UseRuleFilter = rule
		return w.optimizer(core.Config{
			Rounds:      12,
			Seed:        3,
			DisableMemo: true,
			Latency:     estimator.LatencyOptions{Batch: 2, Warmup: 1, Runs: 2},
		}).Run()
	}
	res := run(true)
	if d := res.Decisions[0]; d.Outcome != explain.OutcomeRejected || d.Rule != explain.RuleAccuracyBudget || d.EpochsRun == 0 {
		t.Fatalf("first candidate must fine-tune and fail: %+v", d)
	}
	var finetuned, skipped int
	for i, d := range res.Decisions {
		switch d.Rule {
		case explain.RuleAccuracyBudget:
			finetuned++
		case explain.RuleCapacity:
			skipped++
			if d.Fingerprint != "" || d.EpochsRun != 0 || !res.Traces[i].Skipped {
				t.Fatalf("rule-skipped candidate was evaluated: %+v", d)
			}
		default:
			t.Fatalf("unexpected decision under impossible targets: %+v", d)
		}
	}
	if skipped == 0 {
		t.Fatal("no candidate was skipped by the rule filter")
	}
	if res.Stats.FineTuned != finetuned || res.Stats.SkippedByRule != skipped {
		t.Fatalf("stats %+v disagree with %d fine-tuned / %d skipped decisions", res.Stats, finetuned, skipped)
	}
	if off := run(false); off.Stats.SkippedByRule != 0 || off.Stats.FineTuned != len(off.Decisions) {
		t.Fatalf("rule filter off still skipped: %+v", off.Stats)
	}
}

func TestGraphToDOT(t *testing.T) {
	ds := testutil.TinyFace(151, 8, 4)
	g := testutil.TinyMultiDNN(152, ds)
	dot := g.ToDOT("tiny")
	for _, want := range []string{"digraph", "Input", "ConvBlock", "house", "->"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT missing %q:\n%s", want, dot)
		}
	}
	// One edge per node (tree property): count "->" occurrences.
	if got := strings.Count(dot, "->"); got != g.NodeCount() {
		t.Fatalf("DOT has %d edges, want %d", got, g.NodeCount())
	}
}
