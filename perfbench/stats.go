package main

import (
	"sort"
	"time"

	gmorph "repro"
)

// tailSamples is how many samples must lie beyond a percentile before the
// benchmark reports it: p99 needs at least 1000 samples.
const tailSamples = 10

// percentile returns the nearest-rank p-th percentile (p in basis points,
// 9900 = p99) of the samples, and how many samples lie strictly beyond
// that rank. xs need not be sorted; it is not modified.
func percentile(xs []float64, bp int) (value float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := nearestRank(len(s), bp)
	return s[rank-1], len(s) - rank
}

// nearestRank is ceil(p*n) for p in basis points, in integer arithmetic so
// that n=1000 at p99 lands exactly on rank 990.
func nearestRank(n, bp int) int {
	rank := (bp*n + 9999) / 10000
	if rank < 1 {
		rank = 1
	}
	return rank
}

// supported reports whether a percentile of n samples has enough samples
// beyond it to be reported (the benchmark's sample-count rule).
func supported(n, bp int) bool {
	return n > 0 && n-nearestRank(n, bp) >= tailSamples
}

// median is the 50th percentile by the same rule.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 5000)
	return v
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// rung is one phase of a serving run.
type rung struct {
	Name string  `json:"name"`
	Rate float64 `json:"rate_rps"`
	// Sent counts requests the generator scheduled; OK returned 200;
	// Refused were shed by the server (429 queue full, 503 SLO or
	// deadline); Overflow are arrivals over the generator's in-flight cap;
	// Failed are every other outcome, by status in FailedStatus.
	Sent         int         `json:"sent"`
	OK           int         `json:"ok"`
	Refused      int         `json:"refused"`
	Overflow     int         `json:"overflow"`
	Failed       int         `json:"failed"`
	FailedStatus map[int]int `json:"failed_status,omitempty"`
	// P50/P95/P99 are due-time-to-response latencies of the 200s, with N
	// samples; a percentile is 0 when fewer than ten samples lie beyond it.
	// WinP50 is the median over latencyWindows windows of their medians.
	P50    float64 `json:"p50_ms"`
	P95    float64 `json:"p95_ms"`
	P99    float64 `json:"p99_ms"`
	N      int     `json:"n"`
	WinP50 float64 `json:"win_p50_ms"`
	// Attain is the share of Sent that returned 200 within the limit.
	Attain float64 `json:"slo_attain"`
	// Pass reports whether the deployment kept up with the rung (see
	// summarize).
	Pass bool `json:"pass"`
	// LagP99 is the generator's p99 lateness (actual send minus due), ms.
	LagP99      float64 `json:"lag_p99_ms"`
	InflightMax int     `json:"inflight_max"`
	// Throughput is the saturation phase's 200s per second (see
	// throughput).
	Throughput float64 `json:"throughput_rps,omitempty"`
}

// servedTarget is the share of a rung's requests that must be answered
// 200 for the deployment to have kept up with it.
const servedTarget = 0.99

// summarize folds one phase's samples into its rung record and applies the
// ladder rule: the deployment kept up with a rung when it answered at
// least 99% of the requests 200 (refusals, failures and overflows count
// against it) and the rung's windowed median latency stayed within the
// limit. A deployment that cannot keep up builds a queue whose wait soon
// passes the limit for most requests; a stall of the host delays a few,
// which is what slo_attain, not the ladder, is for.
func summarize(name string, rate float64, limit time.Duration, ss []sample) rung {
	r := rung{Name: name, Rate: rate, Sent: len(ss)}
	var lat, lag []float64
	met := 0
	for _, s := range ss {
		lag = append(lag, ms(s.sent.Sub(s.due)))
		switch {
		case s.status == 200:
			r.OK++
			l := s.end.Sub(s.due)
			lat = append(lat, ms(l))
			if l <= limit {
				met++
			}
		case s.status == 429 || s.status == 503:
			r.Refused++
		case s.status == statusOverflow:
			r.Overflow++
		default:
			r.Failed++
			if r.FailedStatus == nil {
				r.FailedStatus = map[int]int{}
			}
			r.FailedStatus[s.status]++
		}
	}
	r.N = len(lat)
	r.P50 = median(lat)
	if supported(len(lat), 9500) {
		r.P95, _ = percentile(lat, 9500)
	}
	if supported(len(lat), 9900) {
		r.P99, _ = percentile(lat, 9900)
	}
	r.WinP50 = windowedP50(ss, latencyWindows)
	r.LagP99, _ = percentile(lag, 9900)
	if r.Sent > 0 {
		r.Attain = float64(met) / float64(r.Sent)
	}
	r.Pass = r.Sent > 0 && float64(r.OK) >= servedTarget*float64(r.Sent) &&
		r.WinP50 <= ms(limit)
	return r
}

// maxRate applies the ladder rule to the nominal rung and the check
// rung's attempts: the check rate if the deployment kept up with any
// attempt, else the nominal rate if it kept up with the nominal rung,
// else 0.
func maxRate(nominal rung, checks []rung) float64 {
	if !nominal.Pass {
		return 0
	}
	for _, c := range checks {
		if c.Pass {
			return c.Rate
		}
	}
	return nominal.Rate
}

// saturateWindows is how many equal windows the saturation phase is cut
// into. Its throughput is the median window's: the first few hundred
// milliseconds of a saturated deployment run slower while its queue and
// batches fill, and a stall of the host can take one window.
const saturateWindows = 10

// throughput is the saturation phase's 200s per second: the median over
// the windows of a phase that began at start and lasted dur, counting
// only windows that ended before the last request was sent (a phase
// that ran out of requests early is not charged for the time after).
func throughput(ss []sample, start time.Time, dur time.Duration) float64 {
	win := dur / saturateWindows
	var lastSent time.Time
	for _, s := range ss {
		if s.sent.After(lastSent) {
			lastSent = s.sent
		}
	}
	full := min(saturateWindows, int(lastSent.Sub(start)/win))
	if full < 1 {
		return 0
	}
	counts := make([]float64, full)
	for _, s := range ss {
		if k := int(s.end.Sub(start) / win); s.status == 200 && k >= 0 && k < full {
			counts[k]++
		}
	}
	return median(counts) / win.Seconds()
}

// latencyWindows is how many consecutive windows the nominal rung is cut
// into for its reported median.
const latencyWindows = 5

// windowedP50 cuts a rung's samples into consecutive windows of equal
// length and returns the median of the windows' median latencies (200s
// only). A stall that disturbs one window moves the rung's overall median
// but not this one.
func windowedP50(ss []sample, windows int) float64 {
	var p50s []float64
	for w := 0; w < windows; w++ {
		var lat []float64
		for _, s := range ss[w*len(ss)/windows : (w+1)*len(ss)/windows] {
			if s.status == 200 {
				lat = append(lat, ms(s.end.Sub(s.due)))
			}
		}
		if len(lat) > 0 {
			p50s = append(p50s, median(lat))
		}
	}
	return median(p50s)
}

// freshFineTune sums fine-tuning time over rounds that actually trained.
// A cache-hit round replays the original evaluation's training time in its
// trace, so counting it would bill one fine-tune twice.
func freshFineTune(rounds []gmorph.Trace) time.Duration {
	var sum time.Duration
	for _, r := range rounds {
		if !r.CacheHit {
			sum += r.FineTuneTime
		}
	}
	return sum
}
