package main

import (
	"runtime/metrics"
	"slices"
	"time"
)

// Runtime metric names read from outside the program.
const (
	rtHeapLive   = "/gc/heap/live:bytes"
	rtAllocBytes = "/gc/heap/allocs:bytes"
	rtGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	rtTotalCPU   = "/cpu/classes/total:cpu-seconds"
)

// heapSampler polls the live Go heap — what the last collection marked
// live — until stopped. The in-use heap between collections mostly
// measures when the collector happened to run; the marked live heap is
// what the program holds.
type heapSampler struct {
	stop chan struct{}
	done chan []float64
}

// startHeapSampler begins polling every interval.
func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan []float64, 1)}
	go func() {
		s := []metrics.Sample{{Name: rtHeapLive}}
		var live []float64
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			metrics.Read(s)
			live = append(live, float64(s[0].Value.Uint64()))
			select {
			case <-h.stop:
				h.done <- live
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// Stop ends polling and returns the peak live heap in bytes: the median,
// over windows consecutive windows of the polling, of each window's
// peak. A stall of the host piles requests up and lifts the heap in the
// window it falls in, not in the others; with one window it is the plain
// peak.
func (h *heapSampler) Stop(windows int) uint64 {
	close(h.stop)
	live := <-h.done
	var peaks []float64
	for w := 0; w < windows; w++ {
		if part := live[w*len(live)/windows : (w+1)*len(live)/windows]; len(part) > 0 {
			peaks = append(peaks, slices.Max(part))
		}
	}
	return uint64(median(peaks))
}

// rtSnapshot is a point-in-time read of the allocation and GC CPU
// counters; the difference of two snapshots covers the window between.
type rtSnapshot struct {
	alloc           uint64
	gcCPU, totalCPU float64
}

func readRuntime() rtSnapshot {
	s := []metrics.Sample{{Name: rtAllocBytes}, {Name: rtGCCPU}, {Name: rtTotalCPU}}
	metrics.Read(s)
	return rtSnapshot{alloc: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), totalCPU: s[2].Value.Float64()}
}

// allocKBPer is the heap allocated between the snapshots per operation.
func allocKBPer(a, b rtSnapshot, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return float64(b.alloc-a.alloc) / 1024 / float64(ops)
}

// gcCPUFrac is the share of the process's CPU time spent in the garbage
// collector between the snapshots. The runtime refreshes these CPU
// counters at each GC, so windows should span several cycles.
func gcCPUFrac(a, b rtSnapshot) float64 {
	if d := b.totalCPU - a.totalCPU; d > 0 {
		return (b.gcCPU - a.gcCPU) / d
	}
	return 0
}
