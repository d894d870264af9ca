package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/workload"
)

// checkVerdict is the correctness gate for one finished analysis. A
// verified vulnerability must sit at one of the app's known sites, and its
// witness, replayed through the concrete interpreter, must reach the same
// fault. found reports a verified known vulnerability; problem is
// non-empty when the gate rejects the verdict.
func checkVerdict(ref *reference, app *apps.App, rep *core.Report) (found bool, problem string) {
	v := rep.Vuln
	if v == nil {
		return false, ""
	}
	if !knownSite(ref.sites(app), v.Func, v.Kind.String()) {
		return false, fmt.Sprintf("%s: verified %s in %s, the known vulnerabilities are %v",
			app.Name, v.Kind, v.Func, ref.sites(app))
	}
	if v.Witness == nil {
		return false, fmt.Sprintf("%s: verified vulnerability has no witness", app.Name)
	}
	res, err := interp.Run(app.Program(), v.Witness, interp.Config{})
	switch {
	case err != nil:
		return false, fmt.Sprintf("%s: witness replay: %v", app.Name, err)
	case res.Fault != v.Kind || res.FaultFunc != v.Func || res.FaultPos != v.Pos:
		return false, fmt.Sprintf("%s: witness replays to %s in %s at %s, symbolic execution reported %s in %s at %s",
			app.Name, res.Fault, res.FaultFunc, res.FaultPos, v.Kind, v.Func, v.Pos)
	}
	return true, ""
}

func knownSite(sites []site, fn, kind string) bool {
	for _, s := range sites {
		if s.Func == fn && s.Kind == kind {
			return true
		}
	}
	return false
}

// crossCheck re-runs one corpus-seed-1 analysis per app outside the timed
// batch and compares its detection digest and step count with the
// checked-in ledger named in reference.json. Each app is one attempted
// operation; a mismatch is a failed one.
func crossCheck(ctx context.Context, ref *reference, rep *report) {
	cc := ref.CrossCheck
	start := time.Now()
	for _, want := range cc.Apps {
		rep.attempted++
		app, err := apps.Get(want.App)
		if err != nil {
			rep.fail("cross-check: %v", err)
			continue
		}
		corpus, err := workload.BuildCorpusCtx(ctx, app, workload.Options{
			SampleRate: cc.Rate, Seed: cc.Seed, Correct: cc.Runs, Faulty: cc.Runs,
		})
		if err != nil {
			rep.fail("cross-check %s: %v", app.Name, err)
			continue
		}
		cfg := core.Config{Spec: app.Spec, PerCandidateMaxSteps: cc.MaxSteps}
		r, err := core.RunContext(ctx, app.Program(), corpus, cfg)
		if err != nil {
			rep.fail("cross-check %s: %v", app.Name, err)
			continue
		}
		if _, problem := checkVerdict(ref, app, r); problem != "" {
			rep.fail("cross-check %s", problem)
			continue
		}
		if got := core.DigestToken(r); got != want.Digest || r.TotalSteps != want.Steps {
			rep.fail("cross-check %s seed %d: digest %s in %d steps, %s records %s in %d steps",
				app.Name, cc.Seed, got, r.TotalSteps, cc.Source, want.Digest, want.Steps)
		}
	}
	fmt.Fprintf(rep.log, "-- cross-check against %s: %d apps in %v\n", cc.Source, len(cc.Apps), time.Since(start).Round(time.Millisecond))
}
