package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

// BENCHMARK.json must list exactly the workloads and metrics the program
// runs and prints, with the same units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json has workloads %v, program has %v", names, workloadNames())
	}
	check := func(kind string, defs []metricDef, got map[string]string) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program prints %d", kind, len(got), len(defs))
		}
		for _, d := range defs {
			if u, ok := got[d.name]; !ok || u != d.unit {
				t.Errorf("%s metric %s: BENCHMARK.json unit %q, program unit %q", kind, d.name, u, d.unit)
			}
		}
	}
	e2e, layers := map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range b.PerLayer {
		layers[m.Name] = m.Unit
	}
	check("end_to_end", endToEnd, e2e)
	check("per_layer", perLayer, layers)
}

// The smoke mode runs every workload briefly, traced and untraced, with
// its output checks, and prints a correct result for each.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload, including a fusion search")
	}
	var out, errs bytes.Buffer
	if code := runSmoke(3, t.TempDir(), &out, &errs); code != 0 {
		t.Fatalf("smoke exited %d:\n%s", code, errs.String())
	}
	results := 0
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r struct {
			Correct *bool                      `json:"correct"`
			Metrics map[string]json.RawMessage `json:"metrics"`
		}
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad output line %q: %v", sc.Text(), err)
		}
		if r.Correct == nil {
			continue // record line
		}
		results++
		if !*r.Correct {
			t.Errorf("incorrect result: %s", sc.Text())
		}
	}
	if want := 2 * len(workloads); results != want {
		t.Fatalf("%d results, want %d", results, want)
	}
}
