package main

import (
	"testing"
	"time"

	gmorph "repro"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted input
	}
	for _, c := range []struct {
		bp     int
		want   float64
		beyond int
	}{{5000, 50, 50}, {9900, 99, 1}, {10000, 100, 0}, {1, 1, 99}} {
		got, beyond := percentile(xs, c.bp)
		if got != c.want || beyond != c.beyond {
			t.Errorf("p%v = %v (%d beyond), want %v (%d beyond)", float64(c.bp)/100, got, beyond, c.want, c.beyond)
		}
	}
	if xs[0] != 100 {
		t.Fatal("percentile sorted its input in place")
	}
	if v, n := percentile(nil, 9900); v != 0 || n != 0 {
		t.Fatalf("empty percentile = %v, %d", v, n)
	}
}

func TestSampleCountRule(t *testing.T) {
	// p99 is reported only with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want bool
	}{{0, false}, {100, false}, {999, false}, {1000, true}, {5000, true}} {
		if got := supported(c.n, 9900); got != c.want {
			t.Errorf("supported(%d, p99) = %v, want %v", c.n, got, c.want)
		}
	}
	if !supported(20, 5000) || supported(19, 5000) {
		t.Error("p50 needs exactly 20 samples for ten beyond it")
	}
}

// rungSamples builds n samples at rate with the given latency, all 200.
func rungSamples(start time.Time, n int, rate float64, lat time.Duration) []sample {
	ss := make([]sample, n)
	for i := range ss {
		due := dueTime(start, i, rate)
		ss[i] = sample{due: due, sent: due, start: due, stop: due.Add(lat), end: due.Add(lat), status: 200}
	}
	return ss
}

func TestLadderRule(t *testing.T) {
	start := time.Unix(1000, 0)
	limit := 10 * time.Millisecond

	ok := summarize("r", 100, limit, rungSamples(start, 200, 100, 5*time.Millisecond))
	if !ok.Pass || ok.Attain != 1 || ok.P50 != 5 || ok.P99 != 0 || ok.N != 200 {
		t.Fatalf("fast rung: %+v", ok)
	}

	// A stall that delays a few requests past the limit costs
	// slo_attain, not the rung.
	slow := rungSamples(start, 100, 100, 5*time.Millisecond)
	for _, i := range []int{10, 20} {
		slow[i].end = slow[i].due.Add(20 * time.Millisecond)
	}
	if r := summarize("r", 100, limit, slow); !r.Pass || r.Attain != 0.98 {
		t.Fatalf("two slow of 100: %+v", r)
	}

	// A queue that grows through the rung: the median request waits past
	// the limit.
	growing := rungSamples(start, 1000, 100, 0)
	for i := range growing {
		growing[i].end = growing[i].due.Add(time.Duration(i) * 40 * time.Microsecond)
	}
	if r := summarize("r", 100, limit, growing); r.Pass {
		t.Fatalf("a growing queue kept up: %+v", r)
	}

	// Refusals, generator overflows and other statuses count against the
	// rung, each under its own count.
	mixed := rungSamples(start, 1000, 100, 5*time.Millisecond)
	for _, i := range []int{1, 2, 3, 4, 5, 6, 7, 8} {
		mixed[i].status = 429
	}
	mixed[9].status = 500
	mixed[10].status = statusOverflow
	mixed[10].end = time.Time{}
	r := summarize("r", 100, limit, mixed)
	if r.Refused != 8 || r.Overflow != 1 || r.Failed != 1 || r.FailedStatus[500] != 1 || r.OK != 990 || r.Attain != 0.99 || !r.Pass {
		t.Fatalf("refusals/overflow/failures: %+v", r)
	}
	mixed[11].status = 503
	if r := summarize("r", 100, limit, mixed); r.Pass {
		t.Fatalf("11 of 1000 not served should fail: %+v", r)
	}
}

func TestMaxRate(t *testing.T) {
	at := func(rate float64, pass bool) rung { return rung{Rate: rate, Pass: pass} }
	for _, c := range []struct {
		nominal rung
		checks  []rung
		want    float64
	}{
		{at(100, true), []rung{at(250, true)}, 250},
		{at(100, true), []rung{at(250, false), at(250, false), at(250, true)}, 250}, // a retried miss
		{at(100, true), []rung{at(250, false), at(250, false), at(250, false)}, 100},
		{at(100, true), nil, 100},
		{at(100, false), []rung{at(250, true)}, 0},
	} {
		if got := maxRate(c.nominal, c.checks); got != c.want {
			t.Errorf("maxRate(%+v, %+v) = %v, want %v", c.nominal, c.checks, got, c.want)
		}
	}
}

// Saturation throughput is the median window's rate of 200s: a slow
// ramp-up or one stalled window does not move it, and windows after the
// last request was sent do not count.
func TestThroughput(t *testing.T) {
	start := time.Unix(1000, 0)
	ss := rungSamples(start, 1000, 1000, 0) // 100 per 100ms window
	if got := throughput(ss, start, time.Second); got != 1000 {
		t.Fatalf("throughput %v, want 1000", got)
	}
	for i := 0; i < 150; i++ {
		ss[i].status = 429 // a slow start: the first windows serve less
	}
	for i := 500; i < 600; i++ {
		ss[i].end = ss[i].end.Add(100 * time.Millisecond) // one window stalls
	}
	if got := throughput(ss, start, time.Second); got != 1000 {
		t.Fatalf("throughput with a slow start and a stall %v, want 1000", got)
	}
	half := rungSamples(start, 500, 1000, 0) // the budget ran out at 0.5s
	if got := throughput(half, start, time.Second); got != 1000 {
		t.Fatalf("throughput of a phase that ran out early %v, want 1000", got)
	}
	if got := throughput(nil, start, time.Second); got != 0 {
		t.Fatalf("empty throughput %v", got)
	}
}

// A run is a warm-up and the nominal rung at the nominal rate, the check
// rung, then a closed-loop saturation phase whose budget covers
// saturateBudget times the reference capacity.
func TestPhases(t *testing.T) {
	ps := traffic{Nominal: 100, Check: 300, Capacity: 1000, Limit: 50 * time.Millisecond}.phases(20)
	if len(ps) != 4 || ps[0].name != "warm" || ps[1].name != "nominal" || ps[2].name != "check" ||
		ps[0].closed || ps[1].closed || ps[2].closed || !ps[3].closed {
		t.Fatalf("phases %+v", ps)
	}
	if ps[1].requests() != 1200 || ps[2].requests() != 600 || ps[3].requests() != saturateBudget*4000 {
		t.Fatalf("nominal %d, check %d requests, saturation budget %d", ps[1].requests(), ps[2].requests(), ps[3].requests())
	}
	if totalRequests(ps) != 100+1200+checkAttempts*600+saturateBudget*4000 {
		t.Fatalf("total %d", totalRequests(ps))
	}
}

func TestFreshFineTuneSkipsCacheHits(t *testing.T) {
	traces := []gmorph.Trace{
		{FineTuneTime: 3 * time.Second},
		{FineTuneTime: 3 * time.Second, CacheHit: true}, // replayed, not trained
		{FineTuneTime: 2 * time.Second},
		{Skipped: true},
	}
	if got := freshFineTune(traces); got != 5*time.Second {
		t.Fatalf("fresh fine-tune = %v, want 5s", got)
	}
}

func TestWindowedMedianIgnoresOneStalledWindow(t *testing.T) {
	start := time.Unix(1000, 0)
	ss := rungSamples(start, 1000, 100, 5*time.Millisecond)
	for i := 400; i < 700; i++ { // most of the third and fourth windows stall
		ss[i].end = ss[i].due.Add(40 * time.Millisecond)
	}
	if r := summarize("r", 100, time.Second, ss); r.P50 != 5 || r.P95 != 40 {
		t.Fatalf("sanity: overall p50/p95 = %v/%v", r.P50, r.P95)
	}
	if got := windowedP50(ss, 5); got != 5 {
		t.Fatalf("windowed p50 = %v, want 5", got)
	}
	for i := 0; i < 10; i++ {
		ss[i].status = 429 // refusals carry no latency
	}
	if got := windowedP50(ss, 5); got != 5 {
		t.Fatalf("windowed p50 with refusals = %v", got)
	}
}

// The reported heap peak is the median of the windows' peaks: a spike in
// one window does not move it; one window gives the plain peak.
func TestHeapPeakIgnoresOneSpike(t *testing.T) {
	stopped := func(live []float64) *heapSampler {
		h := &heapSampler{stop: make(chan struct{}), done: make(chan []float64, 1)}
		h.done <- live
		return h
	}
	live := []float64{10, 12, 11, 13, 12, 90, 11, 12, 14, 10}
	if got := stopped(live).Stop(5); got != 13 {
		t.Fatalf("windowed peak %d, want 13", got)
	}
	if got := stopped(live).Stop(1); got != 90 {
		t.Fatalf("plain peak %d, want 90", got)
	}
}
