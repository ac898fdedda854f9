package main

import (
	"fmt"
	"time"

	"repro/internal/bench"
	"repro/internal/graph"
	"repro/internal/serve/registry"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

// modelSeed fixes every workload's model weights: the benchmark seed
// varies the traffic, not the models under test.
const modelSeed = 7

// distinctInputs is how many different samples a solo workload cycles
// through; larger pools only cost set-up memory.
const distinctInputs = 128

// Traffic, placed from measurements on the reference host (2 vCPU Intel
// Xeon VM, AVX2 kernels). Capacity is the rate the deployment sustains
// saturated there. The nominal rate, where p50 and slo_attain are read,
// is a fifth of it or less, so that a host stall shows as a stall and not
// as a growing queue. The check rate is a third to a half of it: a
// healthy deployment kept up with it at up to 30% CPU steal, so
// max_rate_rps reads lower only when capacity collapses.
// Every limit is 50 ms.
var (
	visionTraffic = traffic{Nominal: 120, Check: 200, Capacity: 650, Limit: 50 * time.Millisecond}
	textTraffic   = traffic{Nominal: 150, Check: 300, Capacity: 800, Limit: 50 * time.Millisecond}
	stemTraffic   = traffic{Nominal: 200, Check: 600, Capacity: 1400, Limit: 50 * time.Millisecond}
)

// teacher builds a benchmark's untrained teacher at the given scale;
// serving cost does not depend on the weights' values.
func teacher(id string, sc bench.Scale) (*bench.Workload, error) {
	spec, err := bench.SpecByID(id)
	if err != nil {
		return nil, err
	}
	sc.PretrainEpochs = 0
	sc.Seed = modelSeed
	return bench.Build(spec, sc)
}

// soloFixture serves one graph under name, cycling through
// distinctInputs seeded inputs whose elements gen draws.
func soloFixture(name string, g *graph.Graph, seed uint64, total int, gen func(*tensor.RNG) float32) (*fixture, error) {
	per := 1
	for _, d := range g.Root.InputShape {
		per *= d
	}
	rng := tensor.NewRNG(seed)
	f := &fixture{endpoints: []endpoint{{name: name, graph: g}}, perArrival: 1, teacherFLOPs: g.FLOPs()}
	f.inputs = make([][]float32, distinctInputs)
	for i := range f.inputs {
		v := make([]float32, per)
		for k := range v {
			v[k] = gen(rng)
		}
		f.inputs[i] = v
	}
	f.routes = make([]route, total)
	for i := range f.routes {
		f.routes[i] = route{0, i % distinctInputs}
	}
	return f, f.encodeBodies()
}

func gaussian(rng *tensor.RNG) float32 { return float32(rng.NormFloat64()) }

// visionFixture is vision-b1: the B1 teacher (3×VGG13 on 3×32×32 at
// bench.Tiny width), one single-sample JSON body per request.
func visionFixture(seed uint64, total int) (*fixture, error) {
	w, err := teacher("B1", bench.Tiny())
	if err != nil {
		return nil, err
	}
	return soloFixture("b1", w.Teacher, seed, total, gaussian)
}

// textSeqLen is the token count of a text request.
const textSeqLen = 16

// textFixture is text-b7: the B7 teacher (BERT-Large + BERT-Base
// branches) at bench.Tiny scale widened with WidthMul 2, so plan execution
// dominates; requests are 16 token ids.
func textFixture(seed uint64, total int) (*fixture, error) {
	sc := bench.Tiny()
	sc.WidthMul = 2
	sc.SeqLen = textSeqLen
	w, err := teacher("B7", sc)
	if err != nil {
		return nil, err
	}
	return soloFixture("b7", w.Teacher, seed, total, func(rng *tensor.RNG) float32 {
		return float32(rng.Intn(w.Vocab))
	})
}

// Stem-pair traffic. The repo's one measured shared-stem trace
// (BENCH_PR8.json) cycles 64 distinct frames through a 256-entry memo:
// every frame repeats, so after warm-up the memo never misses and never
// evicts. This workload keeps that pool of 64 frames but mixes in unique
// frames and halves the memo below the pool:
//   - stemRepeat: the share of frames drawn from the pool. No trace of
//     real repeated-frame traffic exists in the repo; an even split is an
//     assumption that sends both kinds of frame in quantity. The share
//     of frames the run actually repeats is in the record (repeat_frac).
//   - stemMemoCap: half the pool, so the repeated set does not fit, the
//     LRU evicts and the admission doorkeeper filters the unique frames.
//   - stemUnique: the unique frames are generated once and sent in turn,
//     which bounds the set-up work; none repeats before the nominal rung
//     ends, and by then the memo's doorkeeper has long forgotten it.
const (
	stemRepeat  = 0.5
	stemPool    = 64
	stemMemoCap = stemPool / 2
	stemUnique  = 1024
	stemDepth   = 2
)

// stemFixture is stem-pair: testutil.TinySharedStemPair registered with
// ShareStem 2 and a stem memo, every frame sent to both models.
func stemFixture(seed uint64, total int) (*fixture, error) {
	a, b := testutil.TinySharedStemPair(modelSeed)
	opts := registry.ModelOptions{ShareStem: stemDepth, StemMemoCap: stemMemoCap}
	f := &fixture{endpoints: []endpoint{{"a", a, opts}, {"b", b, opts}}, perArrival: 2}
	per := 3 * 16 * 16
	rng := tensor.NewRNG(seed)
	frame := func() []float32 {
		v := make([]float32, per)
		for k := range v {
			v[k] = float32(rng.NormFloat64())
		}
		return v
	}
	for i := 0; i < stemPool+stemUnique; i++ {
		f.inputs = append(f.inputs, frame())
	}
	seq := make([]int, (total+1)/2)
	unique := 0
	for k := range seq {
		if rng.Float64() < stemRepeat {
			seq[k] = rng.Intn(stemPool)
		} else {
			seq[k] = stemPool + unique%stemUnique
			unique++
		}
	}
	f.routes = make([]route, total)
	for i := range f.routes {
		f.routes[i] = route{i % 2, seq[i/2]}
	}
	f.teacherFLOPs = a.FLOPs() + b.FLOPs()
	f.verify = func(reg *registry.Registry) error {
		m, err := reg.Get("a")
		if err != nil {
			return err
		}
		snap, err := m.Snapshot()
		if err != nil {
			return err
		}
		if snap.Shared == nil || snap.Shared.Depth != stemDepth {
			return fmt.Errorf("stem-pair: models did not form a depth-%d shared-stem group", stemDepth)
		}
		return nil
	}
	return f, f.encodeBodies()
}
