package main

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestDueTimesComeFromTheStart(t *testing.T) {
	start := time.Unix(0, 0)
	for _, c := range []struct {
		i    int
		rate float64
		want time.Duration
	}{{0, 100, 0}, {1, 100, 10 * time.Millisecond}, {1000, 300, 3333333333}, {3, 0.5, 6 * time.Second}} {
		if got := dueTime(start, c.i, c.rate).Sub(start); got != c.want {
			t.Errorf("due(%d @ %v/s) = %v, want %v", c.i, c.rate, got, c.want)
		}
	}
}

// A slow server must not slow the schedule: requests keep going out on
// time and each is timed from its due time.
func TestOpenLoopKeepsScheduleUnderSlowServer(t *testing.T) {
	const n, rate = 40, 1000.0
	const service = 30 * time.Millisecond
	start := time.Now().Add(time.Millisecond)
	ss, peak := openLoop(start, rate, n, 1, 1000, func(i int, s *sample) int {
		time.Sleep(service)
		return 200
	})
	if len(ss) != n {
		t.Fatalf("%d samples", len(ss))
	}
	for i, s := range ss {
		if want := dueTime(start, i, rate); !s.due.Equal(want) {
			t.Fatalf("sample %d due %v, want %v", i, s.due, want)
		}
		if lat := s.end.Sub(s.due); lat < service {
			t.Fatalf("sample %d latency %v below the service time", i, lat)
		}
	}
	// 40 arrivals 1ms apart against a 30ms service: a closed loop would
	// have had one outstanding request; the open loop has many.
	if peak < 10 {
		t.Fatalf("in-flight peak %d: the generator waited for responses", peak)
	}
	var lag []float64
	for _, s := range ss {
		lag = append(lag, ms(s.sent.Sub(s.due)))
	}
	if p, _ := percentile(lag, 5000); p > 10 {
		t.Fatalf("median generator lag %.1fms", p)
	}
}

// A generator that falls behind sends late requests at once and still
// charges their latency from the due time.
func TestOpenLoopLateStartIsMeasured(t *testing.T) {
	start := time.Now().Add(-50 * time.Millisecond) // already 50ms late
	ss, _ := openLoop(start, 1000, 10, 1, 100, func(int, *sample) int { return 200 })
	r := summarize("late", 1000, 10*time.Millisecond, ss)
	if r.LagP99 < 40 || r.P50 < 40 {
		t.Fatalf("lateness not charged: lag p99 %.1fms, p50 %.1fms", r.LagP99, r.P50)
	}
	if r.Pass || r.Attain != 0 {
		t.Fatalf("a 40ms-late rung met a 10ms limit: %+v", r)
	}
}

func TestOpenLoopCountsOverflowAsFailed(t *testing.T) {
	release := make(chan struct{})
	var calls atomic.Int64
	start := time.Now()
	done := make(chan []sample)
	go func() {
		ss, _ := openLoop(start, 2000, 20, 1, 5, func(int, *sample) int {
			calls.Add(1)
			<-release
			return 200
		})
		done <- ss
	}()
	time.Sleep(50 * time.Millisecond) // every arrival is due by now
	close(release)
	ss := <-done
	r := summarize("cap", 2000, time.Second, ss)
	if r.Sent != 20 || r.OK != 5 || r.Overflow != 15 || calls.Load() != 5 {
		t.Fatalf("cap 5 of 20: %+v (calls %d)", r, calls.Load())
	}
}

// Requests of one arrival (a frame sent to every model) share a due time,
// and the request rate is unchanged.
func TestOpenLoopGroupsShareDueTimes(t *testing.T) {
	start := time.Now()
	ss, _ := openLoop(start, 2000, 6, 2, 100, func(int, *sample) int { return 200 })
	for i := 0; i < len(ss); i += 2 {
		want := start.Add(time.Duration(i) * time.Second / 2000)
		if !ss[i].due.Equal(want) || !ss[i+1].due.Equal(want) {
			t.Fatalf("arrival %d due %v/%v, want %v", i/2, ss[i].due.Sub(start), ss[i+1].due.Sub(start), want.Sub(start))
		}
	}
}

// A closed loop never has more than conc requests outstanding, sends the
// requests in order, and stops at its deadline or its budget.
func TestClosedLoopBoundsConcurrency(t *testing.T) {
	var cur, peak atomic.Int64
	slow := func(int, *sample) int {
		if n := cur.Add(1); n > peak.Load() {
			peak.Store(n)
		}
		time.Sleep(2 * time.Millisecond)
		cur.Add(-1)
		return 200
	}
	start := time.Now()
	ss := closedLoop(start, 50*time.Millisecond, 100000, 4, slow)
	if len(ss) < 4 || len(ss) > 4*25+4 {
		t.Fatalf("%d requests in 50ms with 4 outstanding of 2ms each", len(ss))
	}
	if peak.Load() > 4 {
		t.Fatalf("%d outstanding, cap 4", peak.Load())
	}
	for i, s := range ss {
		if s.status != 200 || s.end.Before(s.due) {
			t.Fatalf("request %d: %+v", i, s)
		}
	}
	if ss := closedLoop(time.Now(), time.Second, 10, 4, slow); len(ss) != 10 {
		t.Fatalf("budget of 10 sent %d", len(ss))
	}
}
