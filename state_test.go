package gmorph_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	gmorph "repro"
)

// savedState is the part of StateDir's state.json the resume contract
// checks: the iteration counter and the persisted elites.
type savedState struct {
	Iteration int `json:"iteration"`
	Elites    []struct {
		FLOPs     int64 `json:"flops"`
		Iteration int   `json:"iteration"`
	} `json:"elites"`
}

func readState(t *testing.T, dir string) savedState {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "state.json"))
	if err != nil {
		t.Fatalf("state not persisted: %v", err)
	}
	var st savedState
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// StateDir makes Fuse resumable: a second call with the same directory
// must pick up the saved elites and continue iteration numbering, for the
// serial search and for a batched one alike.
func TestFuseStateDirResume(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	teachers, ds, _ := buildTinyTeachers(t)
	for _, tc := range []struct {
		name  string
		batch int
	}{
		{"serial", 0},
		{"batch4", 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := gmorph.Config{
				AccuracyDrop:   0.10,
				Rounds:         5,
				FineTuneEpochs: 8,
				LearningRate:   0.003,
				EvalEvery:      2,
				Seed:           31,
				StateDir:       dir,
				SearchBatch:    tc.batch,
			}
			res1, err := gmorph.Fuse(teachers, ds, cfg)
			if err != nil {
				t.Fatal(err)
			}
			saved := readState(t, dir)
			if saved.Iteration != 5 {
				t.Fatalf("saved iteration %d, want 5", saved.Iteration)
			}
			if len(saved.Elites) == 0 {
				t.Fatal("first search saved no elites; the resume is not exercised")
			}

			var minIter int
			cfg.Rounds = 3
			cfg.OnRound = func(tr gmorph.Trace) {
				if minIter == 0 || tr.Iteration < minIter {
					minIter = tr.Iteration
				}
			}
			res2, err := gmorph.Fuse(teachers, ds, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if minIter != 0 && minIter <= 5 {
				t.Fatalf("resumed rounds start at %d, want > 5", minIter)
			}
			if len(res2.Traces) == 0 || res2.Traces[0].Iteration != saved.Iteration+1 {
				t.Fatalf("resumed run's first round is %+v, want iteration %d", res2.Traces, saved.Iteration+1)
			}
			// Elites carried over: if the first search found something, the
			// second must still report a best at least as good in FLOPs terms.
			if res1.Found && !res2.Found {
				t.Fatal("resume lost the saved best candidate")
			}
			// The resumed search starts from the saved elites, in order.
			if len(res2.Elites) < len(saved.Elites) {
				t.Fatalf("resumed run holds %d elites, saved %d", len(res2.Elites), len(saved.Elites))
			}
			for i, want := range saved.Elites {
				got := res2.Elites[i]
				if got.Iteration != want.Iteration || got.FLOPs != want.FLOPs {
					t.Fatalf("resumed elite %d is iter %d / %d FLOPs, saved iter %d / %d FLOPs",
						i, got.Iteration, got.FLOPs, want.Iteration, want.FLOPs)
				}
			}
			// Re-saving keeps them and advances the counter by the rounds run.
			resaved := readState(t, dir)
			if resaved.Iteration != 8 {
				t.Fatalf("re-saved iteration %d, want 8", resaved.Iteration)
			}
			if len(resaved.Elites) < len(saved.Elites) {
				t.Fatalf("re-saved state has %d elites, first run saved %d", len(resaved.Elites), len(saved.Elites))
			}
			for i, want := range saved.Elites {
				if got := resaved.Elites[i]; got != want {
					t.Fatalf("re-saved elite %d is %+v, first run saved %+v", i, got, want)
				}
			}
		})
	}
}
