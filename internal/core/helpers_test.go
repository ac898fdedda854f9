package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/distill"
	"repro/internal/estimator"
	"repro/internal/graph"
	"repro/internal/testutil"
)

// world is one search fixture: the pretrained teachers plus the raw
// evaluation inputs core.NewOptimizer takes.
type world struct {
	teacher *graph.Graph
	ds      *data.Dataset
	teach   map[int]float64
	targets map[int]float64
	outs    distill.TeacherOutputs
	accOpts estimator.AccuracyOptions
}

// newWorld pretrains a TinyMultiDNN teacher on a TinyFace stream and sets
// each task's target drop below the teacher's accuracy.
func newWorld(seed uint64, train, test, pretrainEpochs int, drop float64, accOpts estimator.AccuracyOptions) *world {
	ds := testutil.TinyFace(seed, train, test)
	teacher := testutil.TinyMultiDNN(seed+1, ds)
	teach := testutil.PretrainTeachers(teacher, ds, pretrainEpochs, 0.004, seed+2)
	targets := map[int]float64{}
	for id, a := range teach {
		targets[id] = a - drop
	}
	return &world{
		teacher: teacher, ds: ds, teach: teach, targets: targets,
		outs:    distill.ComputeTeacherOutputs(teacher, ds.Train.X, 32),
		accOpts: accOpts,
	}
}

// plainOpts fine-tunes for up to 12 epochs with no filtering.
var plainOpts = estimator.AccuracyOptions{
	FineTune: distill.Config{LR: 0.003, Epochs: 12, Batch: 16, EvalEvery: 2},
}

// buildFixture shares a pre-trained teacher setup across the search tests.
func buildFixture(t *testing.T) *world {
	t.Helper()
	w := newWorld(41, 96, 48, 8, 0.12, plainOpts)
	for id, a := range w.teach {
		if a < 0.7 {
			t.Fatalf("teacher too weak: task %d at %.2f", id, a)
		}
	}
	return w
}

// smallWorld is the duplicate-heavy fixture of the determinism, memo and
// golden-trajectory tests, with the capacity-rule filter on.
func smallWorld() *world {
	return newWorld(141, 64, 32, 6, 0.15, estimator.AccuracyOptions{
		FineTune:      distill.Config{LR: 0.003, Epochs: 6, Batch: 16, EvalEvery: 2},
		UseRuleFilter: true,
	})
}

// optimizer builds a search over the world.
func (w *world) optimizer(cfg core.Config) *core.Optimizer {
	return core.NewOptimizer(w.teacher, w.ds, w.targets, w.outs, w.ds.Train.X, w.accOpts, cfg)
}

// evaluator returns an in-process evaluator with the given slot count.
func (w *world) evaluator(slots int) *core.LocalEvaluator {
	return core.NewLocalEvaluator(w.ds, w.targets, w.outs, w.ds.Train.X, w.accOpts, slots)
}

// measure scores a graph's per-task test metric.
func (w *world) measure(g *graph.Graph) (map[int]float64, error) {
	return (&distill.Evaluator{Dataset: w.ds, Targets: w.targets}).Measure(g)
}
