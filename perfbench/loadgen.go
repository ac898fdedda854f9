package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// statusOverflow marks an arrival the generator could not send because its
// in-flight cap was reached. It counts as failed, never as dropped.
const statusOverflow = -1

// sample is one scheduled request. due is when the open-loop schedule
// said it should be sent; sent is when the generator released it; end is
// when the response body had been written. start/stop bracket the call
// into the handler (equal to sent/end up to goroutine start-up).
type sample struct {
	due, sent, start, stop, end time.Time
	status                      int
}

// dueTime is the i-th arrival of an open loop at rate req/s: computed from
// the start, not accumulated, so a late generator never shifts the
// schedule.
func dueTime(start time.Time, i int, rate float64) time.Time {
	return start.Add(time.Duration(float64(i) * float64(time.Second) / rate))
}

// openLoop sends n requests at rate req/s, in arrivals of group requests
// that share a due time (arrival j is due at start + j*group/rate), each
// request on its own goroutine, regardless of how many are still
// outstanding, and returns once every request has finished. A time.Ticker
// would drop ticks when the loop lags; here a late generator sends
// immediately and the request is still timed from its due time. Arrivals
// beyond maxInflight outstanding requests are recorded with
// statusOverflow. send performs request i, stamps s.start/s.stop and
// returns its HTTP status.
func openLoop(start time.Time, rate float64, n, group, maxInflight int, send func(i int, s *sample) int) (ss []sample, inflightMax int) {
	ss = make([]sample, n)
	var inflight atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		due := dueTime(start, i/group, rate/float64(group))
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		s := &ss[i]
		s.due, s.sent = due, time.Now()
		cur := inflight.Load()
		if cur >= int64(maxInflight) {
			s.status = statusOverflow
			continue
		}
		inflight.Add(1)
		if int(cur)+1 > inflightMax {
			inflightMax = int(cur) + 1
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := send(i, s)
			s.end = time.Now()
			s.status = st
			inflight.Add(-1)
		}()
	}
	wg.Wait()
	return ss, inflightMax
}

// closedLoop keeps conc requests outstanding from start until dur has
// passed or n requests have been sent, and returns once every request has
// finished. Each request is due, and sent, when the one before it on its
// worker finished.
func closedLoop(start time.Time, dur time.Duration, n, conc int, send func(i int, s *sample) int) []sample {
	ss := make([]sample, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	if wait := time.Until(start); wait > 0 {
		time.Sleep(wait)
	}
	stop := start.Add(dur)
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				s := &ss[i]
				s.due = time.Now()
				s.sent = s.due
				s.status = send(i, s)
				s.end = time.Now()
			}
		}()
	}
	wg.Wait()
	return ss[:min(n, int(next.Load()))]
}
