package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/workload"
)

// TestWorkPinSeed1 pins the exact work of a seed-1 analysis (30% sampling,
// 100 correct and 100 faulty runs, sequential engine): executor steps, the
// detection digest, and the logical solver checks. The steps and digests are
// the ones BENCH_pr9.json and perfbench/reference.json record; the checks are
// the logical solves of the same runs. Any change to the executor, the
// solver cache layers or the guidance that alters exploration, or that
// issues more solver queries, fails here first.
func TestWorkPinSeed1(t *testing.T) {
	pins := []struct {
		app    string
		steps  int64
		digest string
		checks int
	}{
		{"polymorph", 9_482, "0f42d7cd2c3f896b", 13},
		{"thttpd", 49_641, "26f2b6e639bca9d2", 2_471},
		{"grep", 1_278_443, "d83b6872c40dff5c", 165},
	}
	start := time.Now()
	for _, p := range pins {
		app, err := apps.Get(p.app)
		if err != nil {
			t.Fatal(err)
		}
		corpus, err := workload.BuildCorpusCtx(context.Background(), app, workload.Options{SampleRate: 0.3, Seed: 1, Correct: 100, Faulty: 100})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := RunContext(context.Background(), app.Program(), corpus, Config{Spec: app.Spec, PerCandidateMaxSteps: 20_000_000})
		if err != nil {
			t.Fatal(err)
		}
		checks := 0
		for _, c := range rep.Candidates {
			checks += c.SolverChecks
		}
		if rep.TotalSteps != p.steps || DigestToken(rep) != p.digest || checks != p.checks {
			t.Errorf("%s: steps %d digest %s solver checks %d, want %d %s %d",
				p.app, rep.TotalSteps, DigestToken(rep), checks, p.steps, p.digest, p.checks)
		}
	}
	t.Logf("pinned analyses took %v", time.Since(start))
}
