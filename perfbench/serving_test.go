package main

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/testutil"
)

// tinyTraffic runs short phases of each kind.
func tinyTraffic() (traffic, []phase) {
	l := traffic{Nominal: 200, Check: 250, Capacity: 300, Limit: time.Second}
	return l, []phase{
		{"warm", 200, 20 * time.Millisecond, false},
		{"nominal", 200, 300 * time.Millisecond, false},
		{"check", 250, 40 * time.Millisecond, false},
		{"saturation", 300, 100 * time.Millisecond, true},
	}
}

// A server that answers 500 must fail the output checks, and the same
// fixture served by the real handler must pass them.
func TestOutputChecksRejectServerErrors(t *testing.T) {
	a, b := testutil.TinySharedStemPair(modelSeed)
	l, ps := tinyTraffic()
	f, err := soloFixture("a", a, 1, totalRequests(ps), gaussian)
	if err != nil {
		t.Fatal(err)
	}
	broken := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	res, err := f.runPhases(broken, nil, l, ps, 1, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(res.problems, "\n")
	if !strings.Contains(joined, "status 500") || !strings.Contains(joined, "no response from a was compared") {
		t.Fatalf("a 500-only server passed the checks: %q", res.problems)
	}
	if res.saturation.Throughput != 0 || res.saturation.Failed == 0 {
		t.Fatalf("500s counted as saturation throughput: %+v", res.saturation)
	}
	if len(res.checks) != checkAttempts || maxRate(res.nominal, res.checks) != 0 {
		t.Fatalf("a failing check rung was not retried, or counted: %+v", res.checks)
	}
	if res.failed < res.attempted || res.nominal.Failed != res.nominal.Sent {
		t.Fatalf("500s not counted as failed: failed %d of %d, nominal %+v", res.failed, res.attempted, res.nominal)
	}

	srv, err := f.deploy(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer closeRegistry(srv.Registry())
	res, err = f.runPhases(srv.Handler(), srv.Registry(), l, ps, 1, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.problems) > 0 || res.failed > 0 {
		t.Fatalf("real handler failed the checks: %q (failed %d)", res.problems, res.failed)
	}
	if res.saturation.Throughput <= 0 || res.saturation.Refused > 0 {
		t.Fatalf("saturation phase: %+v", res.saturation)
	}
	if len(res.checks) != 1 || maxRate(res.nominal, res.checks) != 250 {
		t.Fatalf("check rung: %+v", res.checks)
	}

	// With two endpoints, every one of them is compared.
	g := &fixture{endpoints: []endpoint{{name: "a", graph: a}, {name: "b", graph: b}}, perArrival: 2}
	g.inputs, g.routes = f.inputs, make([]route, 100)
	for i := range g.routes {
		g.routes[i] = route{i % 2, i / 2}
	}
	keep := g.pickChecked(5, 0, len(g.routes))
	per := [2]int{}
	for id := range keep {
		per[g.routes[id].ep]++
	}
	if len(keep) != checkSamples || per[0] != checkSamples/2 || per[1] != checkSamples/2 {
		t.Fatalf("checked %d requests, %v per endpoint", len(keep), per)
	}
}
