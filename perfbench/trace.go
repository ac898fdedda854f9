package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// span is one timed interval at a layer boundary, recorded in memory and
// written out when the run ends. Spans of one request share Trace; Parent
// names the span that caused this one (0 for roots).
type span struct {
	Trace  int               `json:"trace"`
	ID     int               `json:"id"`
	Parent int               `json:"parent"`
	Name   string            `json:"name"`
	Start  float64           `json:"start_us"`
	End    float64           `json:"end_us"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// spanLog collects spans relative to one origin time.
type spanLog struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

func (l *spanLog) us(t time.Time) float64 { return float64(t.Sub(l.origin).Nanoseconds()) / 1e3 }

// add records a span and returns its id.
func (l *spanLog) add(trace, parent int, name string, start, end time.Time, attrs map[string]string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{
		Trace: trace, ID: id, Parent: parent, Name: name,
		Start: l.us(start), End: l.us(end), Attrs: attrs,
	})
	return id
}

// write stores the spans as JSON lines under dir.
func (l *spanLog) write(dir, file string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close()
			return "", fmt.Errorf("trace file: %w", err)
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("trace file: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	return path, nil
}

// forward is one engine batch, timed from outside the engine.
type forward struct {
	start, end time.Time
	rows       int
}

// engineTracer compiles the engines a traced deployment serves with
// (through registry.ModelOptions.Compile) and times every batch they run.
// It keeps the compiled engines so their per-op counters can be read.
type engineTracer struct {
	mu    sync.Mutex
	fwd   []forward
	fused []*engine.Fused
}

func (t *engineTracer) compile(g *graph.Graph) engine.Engine {
	f := engine.Compile(g)
	t.mu.Lock()
	t.fused = append(t.fused, f)
	t.mu.Unlock()
	return &tracedEngine{Fused: f, t: t}
}

// forwardsIn returns the batches that started inside [from, to).
func (t *engineTracer) forwardsIn(from, to time.Time) []forward {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []forward
	for _, f := range t.fwd {
		if !f.start.Before(from) && f.start.Before(to) {
			out = append(out, f)
		}
	}
	return out
}

// opNanos sums the compiled engines' per-op time by op kind.
func (t *engineTracer) opNanos() map[string]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]int64{}
	for _, f := range t.fused {
		for _, st := range f.OpStats() {
			out[st.Kind] += st.Nanos
		}
	}
	return out
}

type tracedEngine struct {
	*engine.Fused
	t *engineTracer
}

func (e *tracedEngine) Forward(x *tensor.Tensor) map[int]*tensor.Tensor {
	t0 := time.Now()
	out := e.Fused.Forward(x)
	t1 := time.Now()
	e.t.mu.Lock()
	e.t.fwd = append(e.t.fwd, forward{start: t0, end: t1, rows: x.Dim(0)})
	e.t.mu.Unlock()
	return out
}
