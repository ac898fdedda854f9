// Command perfbench is the repository's end-to-end benchmark. Three
// serving workloads drive the real /v2 handler in-process, with open-loop
// traffic at a nominal rate and then a closed loop that saturates it; a
// fourth times the fusion search and then serves the model it returns.
// Every run checks its outputs.
//
//	perfbench --workload vision-b1 --seed 1 --seconds 15 --trace 0
//	perfbench --smoke
//
// With --trace 0 the last line of standard output carries the end-to-end
// metrics; with --trace 1 a separate, traced run carries the per-layer
// metrics and writes its spans as JSON lines under --trace-dir. The line
// before the result is a record of the machine, the settings and every
// phase's request counts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/fingerprint"
	"repro/internal/httpapi"
	"repro/internal/tensor"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"deploy_s", "s"},
	{"p50_ms", "ms"},
	{"slo_attain", "fraction"},
	{"max_rate_rps", "req/s"},
	{"heap_peak_mb", "MB"},
	{"fused_flops_ratio", "x"},
}

// perLayer are the metrics of a traced run. A layer a workload does not
// exercise reports 0.
var perLayer = []metricDef{
	{"loadgen.p95_ms", "ms"},
	{"loadgen.p99_ms", "ms"},
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.sent", "count"},
	{"loadgen.inflight_max", "count"},
	{"loadgen.saturated_rps", "req/s"},
	{"httpapi.serve_p50_ms", "ms"},
	{"httpapi.serve_p99_ms", "ms"},
	{"httpapi.decode_us", "us"},
	{"httpapi.encode_us", "us"},
	{"httpapi.req_bytes", "bytes"},
	{"httpapi.resp_bytes", "bytes"},
	{"registry.refused_frac", "fraction"},
	{"registry.slo_shed", "count"},
	{"batcher.rows_per_batch", "rows"},
	{"batcher.wait_p50_ms", "ms"},
	{"batcher.mixed_frac", "fraction"},
	{"engine.forward_p50_ms", "ms"},
	{"engine.busy_frac", "fraction"},
	{"plan.gflops", "GFLOP/s"},
	{"plan.share.conv", "fraction"},
	{"plan.share.pool", "fraction"},
	{"plan.share.linear", "fraction"},
	{"plan.share.qkv", "fraction"},
	{"plan.share.attn", "fraction"},
	{"plan.share.ln", "fraction"},
	{"plan.share.addln", "fraction"},
	{"plan.share.embed", "fraction"},
	{"plan.share.other", "fraction"},
	{"plan.stem_hit_frac", "fraction"},
	{"plan.stem_filtered", "count"},
	{"go.alloc_kb_per_req", "KB"},
	{"go.gc_cpu_frac", "fraction"},
	{"core.search_s", "s"},
	{"core.measured", "count"},
	{"core.met_frac", "fraction"},
	{"core.cache_hit_frac", "fraction"},
	{"core.other_s", "s"},
	{"filter.rule_skipped", "count"},
	{"distill.finetune_s", "s"},
	{"distill.epochs", "count"},
	{"distill.early_stopped", "count"},
	{"estimator.latency_runs", "count"},
	{"estimator.speedup_x", "x"},
	{"estimator.speedup_spread", "fraction"},
	{"trace.overhead_p50_ms", "ms"},
	{"trace.overhead_search_s", "s"},
}

// options are one run's settings.
type options struct {
	seed     uint64
	seconds  float64
	trace    bool
	smoke    bool
	traceDir string
	workload string
}

// repeats is how many times set-up runs for its median: n, or once in a
// smoke run.
func (o options) repeats(n int) int {
	if o.smoke {
		return 1
	}
	return n
}

// Set-up repeats per run. Serving set-up is cheap; its deployment
// (compile and register) takes about a millisecond and is timed
// deployGroup times before the traffic and after each phase, enough
// samples for a steady median of a time that small. The search's set-up
// pretrains teachers.
const (
	servingSetupRepeats = 5
	deployGroup         = 6
	searchSetupRepeats  = 3
)

// report is what a workload run hands back for printing.
type report struct {
	metrics   map[string]float64
	attempted int
	failed    int
	problems  []string
	record    map[string]any
}

func newReport() *report {
	return &report{metrics: map[string]float64{}, record: map[string]any{}}
}

// workload is one named benchmark workload.
type workload struct {
	name string
	run  func(options) (*report, error)
}

var workloads = []workload{
	{"vision-b1", func(o options) (*report, error) { return runServing(visionFixture, visionTraffic, o) }},
	{"text-b7", func(o options) (*report, error) { return runServing(textFixture, textTraffic, o) }},
	{"stem-pair", func(o options) (*report, error) { return runServing(stemFixture, stemTraffic, o) }},
	{"search-b1", runSearch},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 15, "measured serving time per run")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	traceDir := fs.String("trace-dir", ".bench_build/perfbench-traces", "where a traced run writes its spans")
	smoke := fs.Bool("smoke", false, "run every workload briefly with its output checks")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *smoke {
		return runSmoke(*seed, *traceDir, stdout, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "usage: perfbench --workload <%s> --seed <n> --seconds <s> --trace <0|1>\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	o := options{
		seed: *seed, seconds: float64(*seconds), trace: *trace == 1,
		traceDir: *traceDir, workload: w.name,
	}
	rep, err := w.run(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench %s: %v\n", w.name, err)
		return 1
	}
	if !emit(stdout, stderr, o, rep) {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// runSmoke runs every workload briefly, traced and untraced, and fails if
// any output check fails or any metric is missing.
func runSmoke(seed uint64, traceDir string, stdout, stderr io.Writer) int {
	code := 0
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			o := options{seed: seed, seconds: 2, trace: trace, smoke: true, traceDir: traceDir, workload: w.name}
			rep, err := w.run(o)
			if err != nil {
				fmt.Fprintf(stderr, "smoke %s trace=%v: %v\n", w.name, trace, err)
				code = 1
				continue
			}
			if !emit(stdout, stderr, o, rep) {
				code = 1
			}
		}
	}
	return code
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// emit prints the run's record line and then its result line, and
// reports whether the run was correct.
func emit(stdout, stderr io.Writer, o options, rep *report) bool {
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	out := resultLine{Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricOut{}}
	problems := append([]string(nil), rep.problems...)
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok {
			problems = append(problems, "metric "+d.name+" was not measured")
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	if rep.attempted < 1 {
		problems = append(problems, "no operation attempted")
	}
	out.Correct = len(problems) == 0
	for _, p := range problems {
		fmt.Fprintln(stderr, "perfbench "+o.workload+": "+p)
	}
	rep.record["workload"] = o.workload
	rep.record["seed"] = o.seed
	rep.record["seconds"] = o.seconds
	rep.record["trace"] = o.trace
	rep.record["machine"] = machineRecord()
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"record": rep.record}); err != nil {
		fmt.Fprintln(stderr, "perfbench: writing record:", err)
		return false
	}
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(stderr, "perfbench: writing result:", err)
		return false
	}
	return out.Correct
}

func machineRecord() map[string]any {
	return map[string]any{
		"machine":    fingerprint.Machine(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"vec":        tensor.VecKind(),
		"go":         runtime.Version(),
	}
}

// runServing measures one serving workload: set-up and deployment
// (repeated for their medians), then the traffic.
func runServing(build func(seed uint64, total int) (*fixture, error), l traffic, o options) (*report, error) {
	rep := newReport()
	ps := l.phases(o.seconds)
	var f *fixture
	var setup, deploy []float64
	for i := 0; i < o.repeats(servingSetupRepeats); i++ {
		runtime.GC() // start every repeat from the same heap state
		t0 := time.Now()
		var err error
		if f, err = build(o.seed, totalRequests(ps)); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	// Deployments are timed in groups spread over the run (before the
	// traffic and after each phase), so a stall of the host that spans one
	// group does not decide the median.
	deploys := func() error {
		for i := 0; i < o.repeats(deployGroup); i++ {
			runtime.GC()
			t0 := time.Now()
			s, err := f.deploy(nil)
			if err != nil {
				return err
			}
			deploy = append(deploy, time.Since(t0).Seconds())
			closeRegistry(s.Registry())
		}
		return nil
	}
	if err := deploys(); err != nil {
		return nil, err
	}
	srv, err := f.deploy(nil)
	if err != nil {
		return nil, err
	}
	between := deploys
	if o.trace {
		between = nil // deploy_s is not a traced metric
	}
	if err := serveAndReport(f, srv, l, ps, o, rep, 0, between); err != nil {
		return nil, err
	}
	rep.metrics["setup_s"] = median(setup)
	rep.metrics["deploy_s"] = median(deploy)
	rep.record["setup_s"], rep.record["deploy_s"] = setup, deploy
	zeroSearchLayers(rep, o)
	return rep, nil
}

// serveAndReport runs the traffic on a deployed fixture and fills the
// serving metrics. Untraced, it reports the end-to-end metrics. Traced, it
// first measures an untraced nominal rung for the overhead baseline, then
// redeploys with traced engines and reports the per-layer metrics. It
// shuts the deployment down. extraHeap is a peak already observed in this
// run (the search's), folded into heap_peak_mb; between runs after every
// untraced phase.
func serveAndReport(f *fixture, srv *httpapi.Server, l traffic, ps []phase, o options, rep *report, extraHeap uint64, between func() error) error {
	ratio, err := f.flopsRatio(srv.Registry())
	if err != nil {
		closeRegistry(srv.Registry())
		return err
	}
	var res *servingResult
	if !o.trace {
		res, err = f.runPhases(srv.Handler(), srv.Registry(), l, ps, o.seed, nil, nil, between)
		closeRegistry(srv.Registry())
		if err != nil {
			return err
		}
	} else {
		base := []phase{ps[0], {ps[1].name, ps[1].rate, ps[1].dur / 2, false}}
		untraced, err := f.runPhases(srv.Handler(), srv.Registry(), l, base, o.seed, nil, nil, nil)
		closeRegistry(srv.Registry())
		if err != nil {
			return err
		}
		rep.attempted += untraced.attempted
		rep.failed += untraced.failed
		rep.problems = append(rep.problems, untraced.problems...)
		tr := &engineTracer{}
		tsrv, err := f.deploy(tr.compile)
		if err != nil {
			return err
		}
		log := newSpanLog()
		res, err = f.runPhases(tsrv.Handler(), tsrv.Registry(), l, ps, o.seed, tr, log, nil)
		closeRegistry(tsrv.Registry())
		if err != nil {
			return err
		}
		for k, v := range res.layers {
			rep.metrics[k] = v
		}
		rep.metrics["trace.overhead_p50_ms"] = res.nominal.WinP50 - untraced.nominal.WinP50
		path, err := log.write(o.traceDir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
		if err != nil {
			return err
		}
		rep.record["spans"] = path
	}
	rep.attempted += res.attempted
	rep.failed += res.failed
	rep.problems = append(rep.problems, res.problems...)

	nom := res.nominal
	rep.record["rungs"] = append(append([]rung{nom}, res.checks...), res.saturation)
	rep.record["limit_ms"] = ms(l.Limit)
	rep.record["repeat_frac"] = f.repeatFrac(ps)
	// A generator that fell behind by the latency limit was measuring
	// itself, not the server.
	if nom.LagP99 > ms(l.Limit) {
		rep.problems = append(rep.problems, fmt.Sprintf("generator lag p99 %.1fms exceeds the %v limit", nom.LagP99, l.Limit))
	}
	if !o.smoke && !supported(nom.N, 9900) {
		return fmt.Errorf("nominal rung has %d samples; p99 needs at least %d", nom.N, 100*tailSamples)
	}
	rep.metrics["p50_ms"] = nom.WinP50
	rep.metrics["slo_attain"] = nom.Attain
	rep.metrics["max_rate_rps"] = maxRate(nom, res.checks)
	rep.metrics["heap_peak_mb"] = float64(max(res.heapPeak, extraHeap)) / (1 << 20)
	rep.metrics["fused_flops_ratio"] = ratio
	return nil
}

// zeroSearchLayers reports the search layers as not exercised.
func zeroSearchLayers(rep *report, o options) {
	if !o.trace {
		return
	}
	for _, d := range perLayer {
		if _, ok := rep.metrics[d.name]; !ok && isSearchLayer(d.name) {
			rep.metrics[d.name] = 0
		}
	}
}

func isSearchLayer(name string) bool {
	for _, p := range []string{"core.", "filter.", "distill.", "estimator.", "trace.overhead_search"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}
