package symexec_test

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/symexec"
)

// TestEpochWidthOneCountsFaultingPath: the faulting state that stops a run
// at its first vulnerability ends a path under both engines, so the
// sequential loop (Workers=0) and a width-1 epoch engine report the same
// Paths and Steps on polymorph, where the two schedules coincide.
func TestEpochWidthOneCountsFaultingPath(t *testing.T) {
	app, err := apps.Get("polymorph")
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) *symexec.Result {
		opts := symexec.DefaultOptions()
		opts.Workers = workers
		opts.EpochWidth = 1
		return symexec.New(app.Program(), app.Spec, opts).Run()
	}
	seq, epoch := run(0), run(1)
	if !seq.Found() || !epoch.Found() {
		t.Fatalf("vulnerability not found: sequential %v, epoch %v", seq.Found(), epoch.Found())
	}
	if seq.Steps != epoch.Steps {
		t.Fatalf("steps diverged: sequential %d, epoch %d", seq.Steps, epoch.Steps)
	}
	if seq.Paths != epoch.Paths {
		t.Errorf("paths diverged: sequential %d, epoch %d", seq.Paths, epoch.Paths)
	}
}
