// Package core implements GMorph's primary contribution: the graph
// mutation optimization loop of Algorithm 1 together with the simulated
// annealing-based search-space sampling policy (Section 4.3.1). Each
// iteration samples a base abstract graph (an elite candidate with
// probability p, the original multi-DNN graph otherwise), mutates a random
// set of input-shareable node pairs, fine-tunes the result with
// distillation (subject to predictive filtering), and keeps candidates that
// meet the task-accuracy targets as elites for later exploitation.
package core

import (
	"math"
	"runtime"
	"strings"
	"time"

	"repro/internal/data"
	"repro/internal/distill"
	"repro/internal/estimator"
	"repro/internal/filter"
	"repro/internal/fingerprint"
	"repro/internal/graph"
	"repro/internal/mutation"
	"repro/internal/search/explain"
	"repro/internal/tensor"
)

// Policy selects the base graph for each mutation round.
type Policy interface {
	// PickBase returns the base graph for the next round given the
	// original graph and the current elites.
	PickBase(original *graph.Graph, elites []*Elite, rng *tensor.RNG) *graph.Graph
	// Observe feeds back the outcome of the round (accuracy drop of the
	// trained candidate; met indicates target satisfaction).
	Observe(iter int, drop float64, met bool, numElites int)
}

// SAPolicy is the paper's simulated-annealing sampling policy. The
// probability of exploiting an elite is
//
//	p = (1 - exp(-(1-Δ)/(T_c·T_i))) · sqrt(N_c/N_i)
//
// with the temperature schedule T_c = T_i·α^iter. Early rounds explore from
// the original graph; as the temperature drops and elites accumulate, the
// policy shifts to mutating promising candidates.
type SAPolicy struct {
	// InitialTemp is T_i (paper default 90).
	InitialTemp float64
	// Alpha is the cooling constant (paper default 0.99).
	Alpha float64
	// MaxElites is N_i, the elite list capacity (paper default 16).
	MaxElites int

	p float64
}

// NewSAPolicy returns the policy with the paper's defaults.
func NewSAPolicy() *SAPolicy {
	return &SAPolicy{InitialTemp: 90, Alpha: 0.99, MaxElites: 16}
}

// PickBase implements Policy.
func (s *SAPolicy) PickBase(original *graph.Graph, elites []*Elite, rng *tensor.RNG) *graph.Graph {
	if len(elites) > 0 && rng.Float64() < s.p {
		return elites[rng.Intn(len(elites))].Graph
	}
	return original
}

// Observe implements Policy, updating p with the paper's formula.
func (s *SAPolicy) Observe(iter int, drop float64, met bool, numElites int) {
	tc := s.InitialTemp * math.Pow(s.Alpha, float64(iter))
	if drop < 0 {
		drop = 0
	}
	if drop > 1 {
		drop = 1
	}
	nc := float64(numElites)
	ni := float64(s.MaxElites)
	if nc > ni {
		nc = ni
	}
	s.p = (1 - math.Exp(-(1-drop)/(tc*s.InitialTemp))) * math.Sqrt(nc/ni)
}

// P exposes the current exploitation probability (for tests and logs).
func (s *SAPolicy) P() float64 { return s.p }

// RandomPolicy is the baseline from Section 6.4: every round mutates the
// original multi-DNN graph, never exploiting previous candidates.
type RandomPolicy struct{}

// PickBase implements Policy.
func (RandomPolicy) PickBase(original *graph.Graph, elites []*Elite, rng *tensor.RNG) *graph.Graph {
	return original
}

// Observe implements Policy.
func (RandomPolicy) Observe(int, float64, bool, int) {}

// Elite is a trained candidate that met the accuracy targets.
type Elite struct {
	Graph *graph.Graph
	// Latency is the measured inference latency.
	Latency time.Duration
	// FLOPs is the analytic per-sample cost.
	FLOPs int64
	// Accuracy is the per-task test metric after fine-tuning.
	Accuracy map[int]float64
	// FromElite records whether the candidate was mutated from another
	// elite (true) or from the original graph (false).
	FromElite bool
	// FineTuneTime is the wall-clock spent training the candidate.
	FineTuneTime time.Duration
	// Iteration is the round that produced the candidate.
	Iteration int
}

// Metric selects the optimization objective.
type Metric int

// Objectives.
const (
	// OptimizeLatency minimizes measured inference time (paper default).
	OptimizeLatency Metric = iota
	// OptimizeFLOPs minimizes the analytic operation count.
	OptimizeFLOPs
)

// Config parameterizes the optimization loop.
type Config struct {
	// Rounds is N, the number of mutation iterations (paper: 200): one
	// candidate each, whatever BatchSize.
	Rounds int
	// MaxPairsPerPass bounds how many node pairs one mutation pass applies
	// (1-2 in the paper's examples; default 2).
	MaxPairsPerPass int
	// Metric is the objective (default latency).
	Metric Metric
	// Policy is the sampling policy (default the SA policy).
	Policy Policy
	// Seed drives all sampling.
	Seed uint64
	// Latency measurement settings.
	Latency estimator.LatencyOptions
	// TimeBudget optionally stops the search after the given wall-clock
	// duration (0 = unlimited).
	TimeBudget time.Duration
	// OnRound, when non-nil, observes each round's trace entry as it is
	// appended (for live progress reporting).
	OnRound func(Trace)
	// InitialElites seeds the elite list, resuming a persisted search
	// (see SaveState/LoadState).
	InitialElites []*Elite
	// StartIteration offsets the temperature schedule when resuming; the
	// first executed round is StartIteration+1.
	StartIteration int
	// DisableMemo turns off the fingerprint-keyed candidate and latency
	// caches, forcing every sampled duplicate to be re-distilled and
	// re-measured (the pre-memoization behavior; mainly for A/B tests).
	DisableMemo bool
	// DisableWarmStart makes candidates mutated from an elite fine-tune
	// under the full epoch budget instead of the shrunken warm-start budget
	// (see estimator.AccuracyOptions.WarmStartFraction).
	DisableWarmStart bool
	// Memo is the fingerprint-keyed result store backing the search memo
	// (nil: a fresh in-process MemoryMemo). Pass a DiskMemo to share one
	// corpus across processes and runs.
	Memo MemoStore
	// Preranker, when non-nil, is consulted for every fresh candidate and
	// may veto fine-tuning (see Preranker). internal/search/predict
	// provides the learned implementation.
	Preranker Preranker
	// BatchSize is the number of candidates sampled per round, the
	// parallel simulated annealing of the paper's Discussion (Section 7).
	// Elites, filter history and the memo merge between rounds. Default 1:
	// the serial loop of Algorithm 1.
	BatchSize int
	// Evaluator fine-tunes each round's candidates. Nil means in-process
	// evaluation (a LocalEvaluator); a coord.Pool fans the batch out
	// across worker processes. Fine-tune seeds are a pure function of
	// fingerprints, so every evaluator, at any concurrency, yields the
	// same search trajectory.
	Evaluator BatchEvaluator
}

func (c Config) withDefaults() Config {
	if c.Rounds == 0 {
		c.Rounds = 50
	}
	if c.MaxPairsPerPass == 0 {
		c.MaxPairsPerPass = 2
	}
	if c.Policy == nil {
		c.Policy = NewSAPolicy()
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 1
	}
	return c
}

// Trace records one optimization round for analysis (Figure 8's
// latency-vs-search-time curves are plotted from these).
type Trace struct {
	Iteration int
	// Skipped is true when rule-based filtering rejected the candidate.
	Skipped bool
	// Met is true when the candidate reached the accuracy targets.
	Met bool
	// Terminated is true when early termination cancelled fine-tuning.
	Terminated bool
	// FromElite tells whether the base graph was an elite.
	FromElite bool
	// Latency of the candidate (only when Met).
	Latency time.Duration
	// BestLatency is the best latency found so far, 0 until a candidate
	// meets the targets.
	BestLatency time.Duration
	// Elapsed is the cumulative search time when the round finished.
	Elapsed time.Duration
	// FineTuneTime is the candidate's training time.
	FineTuneTime time.Duration
	// EpochsRun is the number of fine-tuning epochs executed.
	EpochsRun int
	// CacheHit is true when the candidate's outcome replayed from the
	// fingerprint-keyed memo cache instead of being fine-tuned.
	CacheHit bool
	// WarmStarted is true when fine-tuning ran under the shrunken
	// warm-start budget (inherited elite weights).
	WarmStarted bool
	// PredictorSkipped is true when the learned pre-ranker rejected the
	// candidate without fine-tuning.
	PredictorSkipped bool
}

// Result is the outcome of a search.
type Result struct {
	// Best is the lowest-cost trained multi-task model meeting the
	// targets; nil when no candidate met them (callers fall back to the
	// original graph).
	Best *Elite
	// Elites holds every accepted candidate (up to the policy capacity).
	Elites []*Elite
	// Traces records all rounds.
	Traces []Trace
	// SearchTime is the total wall-clock spent.
	SearchTime time.Duration
	// Evaluated counts candidates that entered evaluation (incl. skipped
	// and cache-replayed ones).
	Evaluated int
	// Stats aggregates filtering, memoization, and warm-start counters.
	Stats SearchStats
	// Decisions records one explain.Decision per candidate: which rule
	// fired, what the predictor guessed, what measurement said.
	Decisions []explain.Decision
}

// Optimizer runs graph mutation optimization (Algorithm 1). Each round has
// three phases: a serial phase samples BatchSize candidates and applies
// every filter (rule, memo, pre-ranker), the Evaluator fine-tunes the
// survivors — concurrently when it has several slots or workers — and a
// second serial phase merges the outcomes in sampling order. All search
// state is read and written only in the serial phases, so the trajectory
// depends on the seed and BatchSize, never on evaluation concurrency.
// BatchSize 1 is the paper's serial loop.
type Optimizer struct {
	cfg      Config
	original *graph.Graph
	targets  map[int]float64
	useRule  bool
}

// NewOptimizer builds an optimizer over the original multi-DNN graph from
// the raw evaluation inputs: the dataset, per-task targets, teacher outputs
// and fine-tuning options. accOpts.UseRuleFilter turns on capacity-rule
// skipping. When cfg.Evaluator is nil the candidates are evaluated in
// process by a LocalEvaluator with min(BatchSize, GOMAXPROCS) slots.
func NewOptimizer(original *graph.Graph, ds *data.Dataset, targets map[int]float64,
	outs distill.TeacherOutputs, trainX *tensor.Tensor, accOpts estimator.AccuracyOptions,
	cfg Config) *Optimizer {
	cfg = cfg.withDefaults()
	if cfg.Evaluator == nil {
		slots := min(cfg.BatchSize, runtime.GOMAXPROCS(0))
		cfg.Evaluator = NewLocalEvaluator(ds, targets, outs, trainX, accOpts, slots)
	}
	return &Optimizer{cfg: cfg, original: original, targets: targets, useRule: accOpts.UseRuleFilter}
}

// job is one sampled candidate awaiting evaluation.
type job struct {
	iteration int
	// mutErr marks an iteration whose mutation pass failed: it produces no
	// candidate, only a failed observation for the policy.
	mutErr    bool
	cand      *graph.Graph
	fromElite bool
	mutation  string
	profile   graph.CapacityProfile
	skipped   bool
	// fp is the candidate's structural fingerprint (only set when the
	// candidate was not rule-skipped).
	fp uint64
	// entry, when non-nil, is the memoized outcome the merge phase replays
	// instead of evaluating the candidate.
	entry *MemoEntry
	// alias marks a duplicate of an earlier fresh candidate in the same
	// batch: it replays that candidate's freshly merged memo entry instead
	// of re-evaluating, so a duplicate-heavy batch measures each structure
	// exactly once.
	alias bool
	// feats is the candidate's feature vector (fresh candidates only).
	feats []float64
	// score is the pre-ranker's assessment (fresh candidates only).
	score PrerankScore
	// evalIdx indexes this job's EvalOutcome in the round's evaluation
	// batch, -1 when the job does not evaluate.
	evalIdx int
}

// outcome is the result of merging one candidate.
type outcome struct {
	trace Trace
	dec   explain.Decision
	elite *Elite
	drop  float64
}

// Run executes the optimization loop and returns the best model found.
// Rounds is the candidate budget: exactly Rounds iterations are consumed
// (the last batch is partial when BatchSize does not divide Rounds) unless
// the time budget runs out or the base graph has no shareable pairs left.
func (o *Optimizer) Run() *Result {
	cfg := o.cfg
	rng := tensor.NewRNG(cfg.Seed)
	mut := mutation.NewMutator(rng.Split())
	res := &Result{}
	for _, e := range cfg.InitialElites {
		res.Elites = append(res.Elites, e)
		if res.Best == nil || o.better(e, res.Best) {
			res.Best = e
		}
	}
	start := time.Now()
	maxElites := 16
	if sa, ok := cfg.Policy.(*SAPolicy); ok {
		maxElites = sa.MaxElites
	}
	// The original multi-DNN graph is the incumbent: a candidate only
	// becomes Best if it beats the original's cost, so the search never
	// recommends a model slower than what the user already has.
	o.original.RefreshCapacities()
	incumbent := &Elite{
		Graph:   o.original,
		Latency: estimator.Latency(o.original, cfg.Latency),
		FLOPs:   estimator.FLOPs(o.original),
	}
	origParams := o.original.Capacity().Total
	// The rule filter decides at sampling time and learns failures at merge
	// time, and the memo is read while sampling and written while merging:
	// both see one history for any evaluation concurrency.
	rule := filter.NewRuleBased()
	memo := newSearchCache(!cfg.DisableMemo, cfg.Memo)

	iter, last := cfg.StartIteration, cfg.StartIteration+cfg.Rounds
	for exhausted := false; iter < last && !exhausted; {
		if cfg.TimeBudget > 0 && time.Since(start) > cfg.TimeBudget {
			break
		}
		// Phase 1 (serial): sample the round's candidates. Every draw —
		// base pick, pair choice, mutation, fine-tune seed — comes from the
		// seeded streams in a fixed order, and every filter decides here.
		var jobs []job
		var evalJobs []EvalJob
		batchFp := make(map[uint64]bool)
		for c := 0; c < cfg.BatchSize && iter < last; c++ {
			iter++
			base := cfg.Policy.PickBase(o.original, res.Elites, rng)
			pairs := base.ShareablePairs()
			if len(pairs) == 0 {
				exhausted = true
				break
			}
			k := 1 + rng.Intn(cfg.MaxPairsPerPass)
			chosen := make([]graph.Pair, 0, k)
			for i := 0; i < k; i++ {
				chosen = append(chosen, pairs[rng.Intn(len(pairs))])
			}
			mres, err := mut.Apply(base, chosen)
			if err != nil {
				jobs = append(jobs, job{iteration: iter, mutErr: true})
				continue
			}
			j := job{
				iteration: iter, cand: mres.Graph, fromElite: base != o.original,
				mutation: describePairs(chosen), evalIdx: -1,
			}
			j.cand.RefreshCapacities()
			j.profile = j.cand.Capacity()
			if o.useRule && rule.ShouldSkip(j.profile) {
				j.skipped = true
				res.Stats.SkippedByRule++
				jobs = append(jobs, j)
				continue
			}
			j.fp = fingerprint.Hash(j.cand)
			if memo.enabled {
				if j.entry = memo.store.Lookup(j.fp); j.entry != nil {
					res.Stats.CacheHits++
				} else if batchFp[j.fp] {
					// An earlier candidate in this batch has the same
					// structure; its (identically seeded) evaluation will
					// stand in for this one.
					res.Stats.CacheHits++
					j.alias = true
				} else {
					res.Stats.CacheMisses++
				}
			}
			if j.entry == nil && !j.alias {
				j.feats = Features(j.cand, j.profile, incumbent.FLOPs, origParams)
				if cfg.Preranker != nil {
					j.score = cfg.Preranker.Assess(j.feats)
				}
				if j.score.Skip {
					res.Stats.PredictorSkipped++
				} else {
					if j.score.Forced {
						res.Stats.PredictorForced++
					}
					batchFp[j.fp] = true
					// The fine-tune seed is a function of the search seed and
					// the structural fingerprint, so duplicates train
					// identically — which is what makes a memo replay (or a
					// remote evaluation) equivalent to re-evaluating.
					j.evalIdx = len(evalJobs)
					evalJobs = append(evalJobs, EvalJob{
						Cand: j.cand, Seed: memoSeed(cfg.Seed, j.fp),
						Warm: j.fromElite && !cfg.DisableWarmStart,
					})
				}
			}
			jobs = append(jobs, j)
		}

		// Phase 2 (parallel): fine-tune the surviving candidates.
		var evalOuts []EvalOutcome
		if len(evalJobs) > 0 {
			evalOuts = cfg.Evaluator.EvaluateBatch(evalJobs)
		}

		// Phase 3 (serial): merge outcomes in sampling order. Everything the
		// next round's sampling can observe — elites, filter history, the
		// memo, the pre-ranker, latency measurements, policy feedback — is
		// produced here.
		for ji := range jobs {
			j := &jobs[ji]
			if j.mutErr {
				cfg.Policy.Observe(j.iteration, 1, false, len(res.Elites))
				continue
			}
			res.Evaluated++
			oc := o.merge(j, evalOuts, memo, rule, &res.Stats)
			if oc.elite != nil {
				res.Elites = append(res.Elites, oc.elite)
				if len(res.Elites) > maxElites {
					res.Elites = res.Elites[1:]
				}
				if (res.Best == nil && o.better(oc.elite, incumbent)) ||
					(res.Best != nil && o.better(oc.elite, res.Best)) {
					res.Best = oc.elite
				}
				oc.dec.Elite, oc.dec.Best = true, res.Best == oc.elite
			}
			if res.Best != nil {
				oc.trace.BestLatency = res.Best.Latency
			}
			oc.trace.Elapsed = time.Since(start)
			res.Traces = append(res.Traces, oc.trace)
			res.Decisions = append(res.Decisions, oc.dec)
			if cfg.OnRound != nil {
				cfg.OnRound(oc.trace)
			}
			cfg.Policy.Observe(j.iteration, oc.drop, oc.elite != nil, len(res.Elites))
		}
	}
	res.SearchTime = time.Since(start)
	return res
}

// merge folds one candidate's outcome into the memo, the rule history, the
// pre-ranker and the stats, and explains it. It runs in the serial phase,
// in sampling order.
func (o *Optimizer) merge(j *job, evalOuts []EvalOutcome, memo *searchCache,
	rule *filter.RuleBased, st *SearchStats) outcome {
	cfg := o.cfg
	oc := outcome{drop: 1}
	oc.trace = Trace{Iteration: j.iteration, Skipped: j.skipped, FromElite: j.fromElite}
	oc.dec = explain.Decision{Iteration: j.iteration, FromElite: j.fromElite, Mutation: j.mutation}
	dec := &oc.dec
	if !j.skipped {
		dec.Fingerprint = fpKey(j.fp)
	}
	if j.score.Trained {
		dec.Predicted = &explain.Scores{Margin: j.score.Margin, LatencyNS: j.score.LatencyNS}
	}
	// accept makes a trained candidate that met the targets this round's
	// elite, measuring (or replaying) its latency.
	accept := func(g *graph.Graph, flops int64, acc map[int]float64, train time.Duration) {
		lat := memo.latency(j.fp, st, func() time.Duration { return estimator.Latency(g, cfg.Latency) })
		oc.elite = &Elite{
			Graph: g, Latency: lat, FLOPs: flops, Accuracy: acc,
			FromElite: j.fromElite, FineTuneTime: train, Iteration: j.iteration,
		}
		oc.trace.Latency = lat
		if oc.drop = -minMargin(o.targets, acc); oc.drop < 0 {
			oc.drop = 0
		}
		dec.Accuracy = copyAccuracy(acc)
	}
	// replay folds a memoized (or batch-aliased) entry into the round:
	// round bookkeeping, filter history and, for a met candidate, the
	// trained weights all reproduce the original evaluation.
	replay := func(e *MemoEntry, detail string) {
		oc.trace.CacheHit = true
		oc.trace.Met, oc.trace.Terminated = e.Met, e.Terminated
		oc.trace.EpochsRun, oc.trace.FineTuneTime = e.EpochsRun, e.TrainTime
		oc.trace.WarmStarted = e.WarmStarted
		dec.CacheHit, dec.Rule = true, explain.RuleMemo
		dec.EpochsRun, dec.Warm, dec.Detail = e.EpochsRun, e.WarmStarted, detail
		dec.Measured = &explain.Scores{Margin: e.Margin}
		if e.Met {
			accept(replayGraph(j.cand, e), e.FLOPs, copyAccuracy(e.Accuracy), e.TrainTime)
			dec.Outcome = explain.OutcomeAccepted
			dec.Measured.LatencyNS = float64(oc.trace.Latency)
		} else {
			rule.RecordFailure(j.profile)
			dec.Outcome = explain.OutcomeRejected
		}
	}

	switch {
	case j.skipped:
		// Rule-skipped candidates record no failure: the rule already
		// acted on the history that produced it.
		dec.Outcome, dec.Rule = explain.OutcomeSkipped, explain.RuleCapacity

	case j.entry != nil:
		replay(j.entry, "")

	case j.alias:
		// The first occurrence of this fingerprint merged earlier in this
		// batch; replay the entry it just published.
		if e := memo.store.Lookup(j.fp); e != nil {
			replay(e, "replayed a duplicate evaluated earlier in the same batch")
		} else {
			// The original evaluation errored and was not memoized.
			st.EvalErrors++
			dec.Outcome, dec.Rule = explain.OutcomeRejected, explain.RuleEvalError
			dec.Detail = "duplicate of a candidate whose evaluation failed"
		}

	case j.score.Skip:
		// The pre-ranker predicts the accuracy budget is violated by more
		// than its margin. The candidate is not memoized, so forced
		// exploration (or a retrained model) can still measure it later.
		oc.trace.PredictorSkipped = true
		dec.Outcome, dec.Rule = explain.OutcomeSkipped, explain.RulePredictor
		if oc.drop = -j.score.Margin; oc.drop < 0 {
			oc.drop = 0
		}

	default:
		out := evalOuts[j.evalIdx]
		if out.Err != nil {
			st.EvalErrors++
			dec.Outcome, dec.Rule = explain.OutcomeRejected, explain.RuleEvalError
			dec.Detail = out.Err.Error()
			break
		}
		dec.Forced = j.score.Forced
		st.FineTuned++
		e := &MemoEntry{Met: out.Met, Margin: -1, Features: j.feats}
		if rep := out.Report; rep != nil {
			oc.trace.Met, oc.trace.Terminated = rep.Met, rep.Terminated
			oc.trace.FineTuneTime, oc.trace.EpochsRun = rep.TrainTime, rep.EpochsRun
			oc.trace.WarmStarted = rep.WarmStarted
			e.Terminated, e.EpochsRun = rep.Terminated, rep.EpochsRun
			e.TrainTime = rep.TrainTime
			e.WarmStarted, e.WarmFellBack = rep.WarmStarted, rep.WarmFellBack
			st.TotalEpochs += rep.EpochsRun
			if rep.Terminated {
				st.EarlyTerminated++
			}
			if rep.WarmStarted {
				st.WarmStarted++
			}
			if rep.WarmFellBack {
				st.WarmFallbacks++
			}
			if len(rep.Final) > 0 {
				e.Margin = minMargin(o.targets, rep.Final)
			}
		}
		dec.Measured = &explain.Scores{Margin: e.Margin}
		latNS := -1.0
		if out.Met {
			if e.Trained = out.Trained; e.Trained == nil {
				e.Trained = j.cand
			}
			e.FLOPs = estimator.FLOPs(e.Trained)
			e.Accuracy = copyAccuracy(out.Report.Final)
			accept(e.Trained, e.FLOPs, out.Report.Final, out.Report.TrainTime)
			latNS = float64(oc.trace.Latency)
			dec.Measured.LatencyNS = latNS
			dec.Outcome, dec.Rule = explain.OutcomeAccepted, explain.RuleAccuracyMet
		} else {
			rule.RecordFailure(j.profile)
			dec.Outcome, dec.Rule = explain.OutcomeRejected, explain.RuleAccuracyBudget
		}
		dec.EpochsRun, dec.Warm = oc.trace.EpochsRun, oc.trace.WarmStarted
		memo.insert(j.fp, e)
		if cfg.Preranker != nil {
			cfg.Preranker.Observe(j.feats, latNS, e.Margin)
		}
	}
	return oc
}

// better compares candidates under the configured metric.
func (o *Optimizer) better(a, b *Elite) bool {
	if o.cfg.Metric == OptimizeFLOPs {
		return a.FLOPs < b.FLOPs
	}
	return a.Latency < b.Latency
}

// minMargin is the smallest per-task headroom of acc over targets.
func minMargin(targets, acc map[int]float64) float64 {
	first := true
	var m float64
	for id, t := range targets {
		d := acc[id] - t
		if first || d < m {
			m = d
			first = false
		}
	}
	return m
}

// describePairs renders the share-point pairs one mutation pass merged, for
// the decision report ("which share points were tried").
func describePairs(pairs []graph.Pair) string {
	var b strings.Builder
	for i, p := range pairs {
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteString(p.Guest.ID())
		b.WriteString(" -> ")
		b.WriteString(p.Host.ID())
	}
	return b.String()
}
