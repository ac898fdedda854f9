package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync/atomic"
	"time"

	"repro/api"
	"repro/internal/engine"
	"repro/internal/fingerprint"
	"repro/internal/graph"
	"repro/internal/httpapi"
	"repro/internal/serve/registry"
	"repro/internal/tensor"
)

// Serving settings shared by every deployment: cmd/serve's defaults
// (pool 2, max-batch 8, max-wait 2ms, default queue, no SLO budget, no
// deadline, no kernel tuner).
const (
	servePool     = 2
	serveMaxBatch = 8
	serveMaxWait  = 2 * time.Millisecond
	// maxInflight caps outstanding requests in the generator; arrivals
	// beyond it are counted as failed.
	maxInflight = 4096
	// checkSamples is how many nominal-rung responses each run compares
	// against the eager reference executor.
	checkSamples = 24
	// parityTol is the relative tolerance of the repo's parity suites.
	parityTol = 1e-4
)

// traffic fixes one serving workload's load: the nominal open-loop rate,
// at which p50 and slo_attain are read; the check rate, an open-loop rung
// that max_rate_rps reports when the deployment keeps up with it; the
// latency limit (see summarize); and the capacity, what the deployment
// sustained saturated on the reference host, which sizes the saturation
// phase's request budget.
type traffic struct {
	Nominal, Check, Capacity float64
	Limit                    time.Duration
}

// endpoint is one registered model.
type endpoint struct {
	name  string
	graph *graph.Graph
	// opts carries the model's sharing options; scheduling settings come
	// from the serving defaults above.
	opts registry.ModelOptions
}

func (e endpoint) path() string { return "/v2/models/" + e.name + "/infer" }

// route is the endpoint and input of one request.
type route struct{ ep, input int }

// fixture is a serving workload's generated inputs and model group.
type fixture struct {
	endpoints []endpoint
	inputs    [][]float32 // distinct request inputs
	bodies    [][]byte    // inputs encoded as api.InferRequest
	routes    []route     // request i of the run
	// perArrival requests share each due time (every frame goes to every
	// model at once).
	perArrival int
	// teacherFLOPs is what one arrival costs the models the workload
	// stands for, run as they are.
	teacherFLOPs int64
	// verify, when set, checks the deployment took the intended shape.
	verify func(*registry.Registry) error
}

// encodeBodies pre-encodes every input, so request bodies cost nothing at
// send time.
func (f *fixture) encodeBodies() error {
	f.bodies = make([][]byte, len(f.inputs))
	for i, in := range f.inputs {
		b, err := json.Marshal(api.InferRequest{Input: in})
		if err != nil {
			return fmt.Errorf("encoding input %d: %w", i, err)
		}
		f.bodies[i] = b
	}
	return nil
}

// deploy registers the fixture's models in a fresh registry. compile is
// nil for untraced runs (the registry's own engine.Compile).
func (f *fixture) deploy(compile func(*graph.Graph) engine.Engine) (*httpapi.Server, error) {
	reg := registry.New()
	for _, ep := range f.endpoints {
		o := ep.opts
		o.Pool, o.MaxBatch, o.MaxWait = servePool, serveMaxBatch, serveMaxWait
		o.Compile = compile
		if _, err := reg.Register(ep.name, ep.graph, o); err != nil {
			closeRegistry(reg)
			return nil, fmt.Errorf("registering %s: %w", ep.name, err)
		}
	}
	if f.verify != nil {
		if err := f.verify(reg); err != nil {
			closeRegistry(reg)
			return nil, err
		}
	}
	return httpapi.NewRegistry(reg, 0), nil
}

// flopsRatio is teacherFLOPs over the FLOPs the deployment computes for
// one arrival, read from what the registry deployed: each model's graph,
// less the stem a shared-stem group computes once for all its members.
func (f *fixture) flopsRatio(reg *registry.Registry) (float64, error) {
	var served int64
	groups := map[string]bool{}
	for _, ep := range f.endpoints {
		m, err := reg.Get(ep.name)
		if err != nil {
			return 0, err
		}
		snap, err := m.Snapshot()
		if err != nil {
			return 0, err
		}
		served += snap.Graph.FLOPs()
		if sh := snap.Shared; sh != nil {
			if groups[sh.Fingerprint] {
				served -= stemFLOPs(snap.Graph, sh.Depth)
			}
			groups[sh.Fingerprint] = true
		}
	}
	return float64(f.teacherFLOPs) / float64(served), nil
}

// stemFLOPs is the per-sample FLOPs of a graph's first depth stem nodes.
func stemFLOPs(g *graph.Graph, depth int) int64 {
	var total int64
	for _, n := range fingerprint.StemNodes(g)[:depth] {
		total += n.Layer.FLOPs(n.InputShape)
	}
	return total
}

func closeRegistry(reg *registry.Registry) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = reg.Close(ctx) // the benchmark is done with it; a slow drain only delays exit
}

// memWriter is an in-memory http.ResponseWriter. It counts the body and
// keeps it only when buf is set.
type memWriter struct {
	h      http.Header
	status int
	n      int
	buf    *bytes.Buffer
}

func (w *memWriter) Header() http.Header { return w.h }

func (w *memWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *memWriter) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.n += len(b)
	if w.buf != nil {
		w.buf.Write(b)
	}
	return len(b), nil
}

// phase is one segment of a serving run: open loop at rate req/s, or,
// when closed, a closed loop of saturateConc outstanding requests whose
// request budget is saturateBudget times rate × dur.
type phase struct {
	name   string
	rate   float64
	dur    time.Duration
	closed bool
}

func (p phase) requests() int {
	n := int(math.Round(p.rate * p.dur.Seconds()))
	if p.closed {
		n *= saturateBudget
	}
	return n
}

// Shares of a run's --seconds: a warm-up at the nominal rate, the nominal
// rung (which gives p50 and so gets most of the time), the check rung (up
// to checkAttempts times), then the saturation phase.
const (
	warmFrac     = 0.05
	nominalFrac  = 0.60
	checkFrac    = 0.10
	saturateFrac = 0.20
)

// checkAttempts is how many times the check rung is run before
// max_rate_rps falls back to the nominal rate: a single miss is as often
// a stall of the host as a loss of capacity.
const checkAttempts = 3

// The saturation phase keeps saturateConc requests outstanding: twice
// what the engine pool holds in full batches, so a full batch is always
// waiting, and less than the admission queue holds, so none is refused.
// Its request budget covers saturateBudget times the reference capacity;
// a host that runs out of it ends the phase early, which the throughput
// accounts for.
const (
	saturateConc   = 2 * servePool * serveMaxBatch
	saturateBudget = 3
)

// phases lays out a workload's traffic over a run of the given length.
func (l traffic) phases(seconds float64) []phase {
	d := func(frac float64) time.Duration { return time.Duration(frac * seconds * float64(time.Second)) }
	return []phase{
		{"warm", l.Nominal, d(warmFrac), false},
		{"nominal", l.Nominal, d(nominalFrac), false},
		{"check", l.Check, d(checkFrac), false},
		{"saturation", l.Capacity, d(saturateFrac), true},
	}
}

// totalRequests is how many routes a fixture needs for one run, with the
// check rung run checkAttempts times.
func totalRequests(ps []phase) int {
	n := 0
	for _, p := range ps {
		if p.name == "check" {
			n += checkAttempts * p.requests()
		} else {
			n += p.requests()
		}
	}
	return n
}

// servingResult is what one pass over a workload's phases measured.
type servingResult struct {
	nominal, saturation rung
	// checks are the check rung's attempts: up to the first the deployment
	// kept up with, or checkAttempts misses.
	checks    []rung
	heapPeak  uint64 // over the nominal rung (see heapSampler.Stop)
	attempted int
	failed    int
	// problems lists output-check failures: wrong outputs, responses that
	// were neither served nor refused, endpoints never checked.
	problems []string
	layers   map[string]float64
}

// repeatFrac is the share of the nominal rung's requests whose input was
// already sent to the same endpoint earlier in the run.
func (f *fixture) repeatFrac(ps []phase) float64 {
	seen := map[route]bool{}
	offset, repeats, n := 0, 0, 0
	for _, p := range ps {
		for _, rt := range f.routes[offset : offset+p.requests()] {
			if p.name == "nominal" {
				n++
				if seen[rt] {
					repeats++
				}
			}
			seen[rt] = true
		}
		if p.name == "nominal" {
			break
		}
		offset += p.requests()
	}
	return float64(repeats) / float64(max(1, n))
}

// pickChecked chooses, from the seed, checkSamples requests among the n
// starting at offset whose outputs are checked, spread evenly over the
// endpoints so that every endpoint is checked.
func (f *fixture) pickChecked(seed uint64, offset, n int) map[int]bool {
	keep := map[int]bool{}
	rng := tensor.NewRNG(seed ^ 0xC4EC)
	for k := 0; k < checkSamples && len(keep) < n; k++ {
		ep := k % len(f.endpoints)
		for try := 0; try < 64*n; try++ {
			id := offset + rng.Intn(n)
			if f.routes[id].ep == ep && !keep[id] {
				keep[id] = true
				break
			}
		}
	}
	return keep
}

// runPhases drives the handler through the phases and checks a seeded
// sample of nominal-rung responses against the reference executor. With
// a tracer it also records spans and the per-layer metrics (reg is read
// only then). between, when set, runs after every phase, while the
// deployment is idle.
func (f *fixture) runPhases(h http.Handler, reg *registry.Registry, l traffic, ps []phase, seed uint64, tr *engineTracer, log *spanLog, between func() error) (*servingResult, error) {
	res := &servingResult{}
	if need := totalRequests(ps); need > len(f.routes) {
		return nil, fmt.Errorf("fixture has %d routes, the run needs %d", len(f.routes), need)
	}

	keep := map[int]bool{}
	offset := 0
	for _, p := range ps {
		if p.name == "nominal" {
			keep = f.pickChecked(seed, offset, p.requests())
			break
		}
		offset += p.requests()
	}
	captured := make([][]byte, len(f.routes))
	status := make([]int, len(f.routes))
	var reqBytes, reqCount, respBytes, respCount atomic.Int64

	var heap *heapSampler
	var before layerCounters
	var rtBefore, rtAfter rtSnapshot
	offset = 0
	lagAll := []float64{}
	sentAll, inflightAll := 0, 0
	for pi := 0; pi < len(ps); pi++ {
		p := ps[pi]
		base := offset
		send := func(i int, s *sample) int {
			id := base + i
			rt := f.routes[id]
			ep := f.endpoints[rt.ep]
			body := f.bodies[rt.input]
			req, err := http.NewRequest(http.MethodPost, ep.path(), bytes.NewReader(body))
			if err != nil {
				return 0
			}
			w := &memWriter{h: http.Header{}}
			if keep[id] {
				w.buf = new(bytes.Buffer)
			}
			s.start = time.Now()
			h.ServeHTTP(w, req)
			s.stop = time.Now()
			reqBytes.Add(int64(len(body)))
			reqCount.Add(1)
			if w.status == http.StatusOK {
				respBytes.Add(int64(w.n))
				respCount.Add(1)
			}
			if w.buf != nil {
				status[id] = w.status
				if w.status == http.StatusOK {
					captured[id] = w.buf.Bytes()
				}
			}
			return w.status
		}
		if p.name == "nominal" {
			heap = startHeapSampler(2 * time.Millisecond)
			if tr != nil {
				before = readLayerCounters(reg, tr)
				rtBefore = readRuntime()
			}
		}
		start := time.Now().Add(time.Millisecond)
		var ss []sample
		inflight := 0
		if p.closed {
			ss = closedLoop(start, p.dur, p.requests(), saturateConc, send)
		} else {
			ss, inflight = openLoop(start, p.rate, p.requests(), f.perArrival, maxInflight, send)
		}
		end := time.Now()
		if p.name == "nominal" {
			res.heapPeak = heap.Stop(latencyWindows)
			if tr != nil {
				rtAfter = readRuntime()
			}
		}
		if between != nil {
			if err := between(); err != nil {
				return nil, err
			}
		}
		offset += p.requests()
		res.attempted += len(ss)
		r := summarize(p.name, p.rate, l.Limit, ss)
		r.InflightMax = inflight
		res.failed += r.Failed + r.Overflow
		// Every request must be served or refused; anything else is a
		// fault of the program, whatever the load.
		for st, n := range r.FailedStatus {
			res.problems = append(res.problems, fmt.Sprintf("%s phase: %d requests answered with status %d", p.name, n, st))
		}
		if log != nil {
			for i := range ss {
				s := &ss[i]
				if s.status == statusOverflow {
					continue
				}
				attrs := map[string]string{"phase": p.name, "status": fmt.Sprint(s.status)}
				root := log.add(base+i+1, 0, "loadgen.request", s.due, s.end, attrs)
				log.add(base+i+1, root, "httpapi.serve", s.start, s.stop, nil)
			}
		}
		if p.name == "warm" {
			continue
		}
		if !p.closed { // a closed loop has no schedule to fall behind
			for _, s := range ss {
				lagAll = append(lagAll, ms(s.sent.Sub(s.due)))
			}
		}
		sentAll += len(ss)
		inflightAll = max(inflightAll, inflight)
		if p.name == "nominal" {
			res.nominal = r
			if tr != nil {
				res.layers = map[string]float64{}
				f.nominalLayers(res.layers, reg, tr, before, ss, start, end, rtBefore, rtAfter)
				res.layers["loadgen.p95_ms"], res.layers["loadgen.p99_ms"] = r.P95, r.P99
			}
		}
		if p.name == "check" {
			res.checks = append(res.checks, r)
			if !r.Pass && len(res.checks) < checkAttempts {
				pi-- // run the check rung again
			}
		}
		if p.closed {
			r.Throughput = throughput(ss, start, p.dur)
			res.saturation = r
		}
	}
	bad := f.checkOutputs(captured, status, keep)
	res.problems = append(res.problems, bad...)
	res.failed += len(bad)

	if tr != nil {
		L := res.layers
		L["loadgen.lag_p99_ms"], _ = percentile(lagAll, 9900)
		L["loadgen.sent"] = float64(sentAll)
		L["loadgen.inflight_max"] = float64(inflightAll)
		L["httpapi.req_bytes"] = float64(reqBytes.Load()) / float64(max(1, reqCount.Load()))
		L["httpapi.resp_bytes"] = float64(respBytes.Load()) / float64(max(1, respCount.Load()))
		L["httpapi.decode_us"] = f.decodeMicros()
		L["httpapi.encode_us"] = encodeMicros(captured)
		sat := res.saturation
		L["registry.refused_frac"] = float64(sat.Refused) / float64(max(1, sat.Sent))
		L["loadgen.saturated_rps"] = sat.Throughput
		var shed int64
		for _, m := range reg.Models() {
			shed += m.Stats().Shed
		}
		L["registry.slo_shed"] = float64(shed)
		for _, t := range tr.forwardsIn(time.Time{}, time.Now()) {
			log.add(0, 0, "engine.forward", t.start, t.end, map[string]string{"rows": fmt.Sprint(t.rows)})
		}
	}
	return res, nil
}

// layerCounters are the program's own counters read before and after the
// traced nominal rung.
type layerCounters struct {
	batches, rows, mixed int64
	hits, misses         int64
	filtered             int64
	opNanos              map[string]int64
}

// readLayerCounters reads the first model's batcher (for a shared-stem
// group that is the group batcher every member routes through) and memo.
func readLayerCounters(reg *registry.Registry, tr *engineTracer) layerCounters {
	var c layerCounters
	models := reg.Models()
	if len(models) == 0 {
		return c
	}
	st := models[0].Stats()
	for k, v := range st.Batcher.BatchHist {
		c.batches += v
		c.rows += int64(k) * v
	}
	c.mixed = st.Batcher.MixedBatches
	if sh := st.Shared; sh != nil {
		c.hits, c.misses, c.filtered = sh.MemoHits, sh.MemoMisses, sh.MemoFiltered
		c.mixed = sh.MixedBatches
	}
	c.opNanos = tr.opNanos()
	return c
}

// opKinds groups plan op kinds into the reported shares.
var opKinds = map[string]string{
	"conv": "conv", "qconv": "conv",
	"maxpool": "pool", "avgpool": "pool", "tokenmean": "pool",
	"linear": "linear", "qlinear": "linear",
	"qkv": "qkv", "qqkv": "qkv",
	"attn": "attn", "ln": "ln", "addln": "addln", "embed": "embed",
}

// shareKinds are the plan.share.* metrics, "other" collecting the rest.
var shareKinds = []string{"conv", "pool", "linear", "qkv", "attn", "ln", "addln", "embed", "other"}

// nominalLayers fills the per-layer metrics measured over the nominal rung.
func (f *fixture) nominalLayers(L map[string]float64, reg *registry.Registry, tr *engineTracer, before layerCounters,
	ss []sample, from, to time.Time, rtA, rtB rtSnapshot) {
	after := readLayerCounters(reg, tr)
	for _, d := range perLayer {
		if !isSearchLayer(d.name) {
			L[d.name] = 0 // layers this deployment does not exercise stay 0
		}
	}

	var serve []float64
	for _, s := range ss {
		if s.status == http.StatusOK {
			serve = append(serve, ms(s.stop.Sub(s.start)))
		}
	}
	L["httpapi.serve_p50_ms"] = median(serve)
	L["httpapi.serve_p99_ms"], _ = percentile(serve, 9900)

	batches := after.batches - before.batches
	if batches > 0 {
		L["batcher.rows_per_batch"] = float64(after.rows-before.rows) / float64(batches)
		L["batcher.mixed_frac"] = float64(after.mixed-before.mixed) / float64(batches)
	}
	fwd := tr.forwardsIn(from, to)
	var durs []float64
	var busy time.Duration
	var rows int64
	for _, t := range fwd {
		d := t.end.Sub(t.start)
		durs = append(durs, ms(d))
		busy += d
		rows += int64(t.rows)
	}
	fwdP50 := median(durs)
	L["engine.forward_p50_ms"] = fwdP50
	if win := to.Sub(from); win > 0 {
		L["engine.busy_frac"] = float64(busy) / float64(win) / servePool
	}
	if busy > 0 {
		L["plan.gflops"] = float64(f.endpoints[0].graph.FLOPs()) * float64(rows) / busy.Seconds() / 1e9
	}
	if models := reg.Models(); len(models) > 0 {
		L["batcher.wait_p50_ms"] = models[0].Stats().Batcher.P50Micros/1e3 - fwdP50
	}

	var total int64
	share := map[string]int64{}
	for kind, n := range after.opNanos {
		d := n - before.opNanos[kind]
		g := opKinds[kind]
		if g == "" {
			g = "other"
		}
		share[g] += d
		total += d
	}
	for _, k := range shareKinds {
		if total > 0 {
			L["plan.share."+k] = float64(share[k]) / float64(total)
		} else {
			L["plan.share."+k] = 0
		}
	}
	if look := (after.hits - before.hits) + (after.misses - before.misses); look > 0 {
		L["plan.stem_hit_frac"] = float64(after.hits-before.hits) / float64(look)
	}
	L["plan.stem_filtered"] = float64(after.filtered - before.filtered)

	L["go.alloc_kb_per_req"] = allocKBPer(rtA, rtB, len(ss))
	L["go.gc_cpu_frac"] = gcCPUFrac(rtA, rtB)
}

// checkOutputs compares every checked response with the eager reference
// executor on the same input, at the parity suites' tolerance. A checked
// request the server refused (429, 503) is not compared, but every
// endpoint must have at least one compared response.
func (f *fixture) checkOutputs(captured [][]byte, status []int, keep map[int]bool) []string {
	ids := make([]int, 0, len(keep))
	for id := range keep {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var bad []string
	compared := make([]int, len(f.endpoints))
	for _, id := range ids {
		rt := f.routes[id]
		ep := f.endpoints[rt.ep]
		switch status[id] {
		case http.StatusOK:
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			continue // refused: a miss of the rung, no output to compare
		default:
			bad = append(bad, fmt.Sprintf("request %d to %s: status %d", id, ep.name, status[id]))
			continue
		}
		compared[rt.ep]++
		var resp api.InferResponse
		if err := json.Unmarshal(captured[id], &resp); err != nil {
			bad = append(bad, fmt.Sprintf("request %d: undecodable response: %v", id, err))
			continue
		}
		x := tensor.FromSlice(append([]float32(nil), f.inputs[rt.input]...), append([]int{1}, ep.graph.Root.InputShape...)...)
		want := engine.NewReference(ep.graph).Forward(x)
		if len(resp.Outputs) != len(want) {
			bad = append(bad, fmt.Sprintf("request %d: %d task outputs, want %d", id, len(resp.Outputs), len(want)))
			continue
		}
		for tid, w := range want {
			rows := resp.Outputs[taskName(ep.graph, tid)]
			if len(rows) != 1 || len(rows[0]) != w.Size() {
				bad = append(bad, fmt.Sprintf("request %d task %d: wrong output shape", id, tid))
				continue
			}
			for k, v := range w.Data() {
				a, b := float64(v), float64(rows[0][k])
				if math.Abs(a-b) > parityTol*math.Max(1, math.Abs(a)) {
					bad = append(bad, fmt.Sprintf("request %d task %d elem %d: got %v, reference %v", id, tid, k, b, a))
					break
				}
			}
		}
	}
	for i, n := range compared {
		if n == 0 {
			bad = append(bad, fmt.Sprintf("no response from %s was compared with the reference", f.endpoints[i].name))
		}
	}
	return bad
}

func taskName(g *graph.Graph, id int) string {
	if n := g.TaskNames[id]; n != "" {
		return n
	}
	return fmt.Sprintf("task-%d", id)
}

// decodeMicros is the median time to decode one of the workload's request
// bodies into api.InferRequest, as the handler does.
func (f *fixture) decodeMicros() float64 {
	var ts []float64
	for rep := 0; rep < 3; rep++ {
		for i, b := range f.bodies {
			if i == 64 {
				break
			}
			t0 := time.Now()
			var req api.InferRequest
			if err := json.NewDecoder(bytes.NewReader(b)).Decode(&req); err != nil {
				continue
			}
			ts = append(ts, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}
	return median(ts)
}

// encodeMicros is the median time to encode one of the run's captured
// responses as api.InferResponse, as the handler does.
func encodeMicros(captured [][]byte) float64 {
	var ts []float64
	for rep := 0; rep < 3; rep++ {
		for _, b := range captured {
			if b == nil {
				continue
			}
			var resp api.InferResponse
			if err := json.Unmarshal(b, &resp); err != nil {
				continue
			}
			t0 := time.Now()
			if err := json.NewEncoder(io.Discard).Encode(resp); err != nil {
				continue
			}
			ts = append(ts, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}
	return median(ts)
}
