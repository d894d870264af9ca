package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTools builds the statsymd and tracecheck binaries the harness
// drives into a temporary directory.
func buildTools(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	out, err := exec.Command("go", "build", "-o", dir+string(filepath.Separator),
		"repro/cmd/statsymd", "repro/cmd/tracecheck").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return dir
}

// tinyReference returns reference.json shrunk so every workload runs in a
// few seconds; edit may change it further. It is written, with a copy of
// BENCHMARK.json one directory up, under a temporary directory, and the
// path of the written reference.json is returned.
func tinyReference(t *testing.T, edit func(*reference)) string {
	t.Helper()
	ref, err := loadReference("reference.json")
	if err != nil {
		t.Fatal(err)
	}
	ref.SetupRepeats = 1
	ref.CrossCheck.Apps = ref.CrossCheck.Apps[:1] // polymorph: milliseconds
	// A tiny batch lasts tens of milliseconds, too short for the traced and
	// untraced passes to agree within the full-size tolerance; the full-size
	// runs keep reference.json's value.
	ref.TraceSumTolerance = 1
	for name, w := range ref.Workloads {
		w.Digests = nil
		switch name {
		case "thttpd-guided", "grep-deep":
			w.Direct, w.Detoured, w.ScanCap = 1, 0, 3
		case "frontend-bulk":
			w.Runs = 50
		case "daemon-openloop":
			w.Runs = 20
			w.Daemon.UniqueSeeds = 2
			w.Daemon.Rungs = w.Daemon.Rungs[:2]
			w.Daemon.Rungs[0].Rate, w.Daemon.Rungs[1].Rate = 20, 40
		}
	}
	if edit != nil {
		edit(ref)
	}
	dir := t.TempDir()
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCHMARK.json"), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if blob, err = json.Marshal(ref); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "perfbench", "reference.json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// invoke runs the harness command line and decodes its last output line.
func invoke(t *testing.T, refPath, bin, workload, trace string) (*result, string) {
	t.Helper()
	var out bytes.Buffer
	code := cli([]string{"--workload", workload, "--seed", "1", "--seconds", "0.2", "--trace", trace,
		"--reference", refPath, "--bin", bin, "--work", t.TempDir()}, &out)
	if code != 0 {
		t.Fatalf("%s --trace %s: exit %d\n%s", workload, trace, code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s --trace %s: last line is not a result: %v\n%s", workload, trace, err, out.String())
	}
	return &res, out.String()
}

// TestSmokeEveryMetricPrinted runs each workload at a tiny size, untraced
// and traced, and checks that the result line carries exactly the metrics
// BENCHMARK.json lists for that mode, each with its unit, and that the
// run passed its correctness checks.
func TestSmokeEveryMetricPrinted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bin := buildTools(t)
	refPath := tinyReference(t, nil)
	ref, err := loadReference(refPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range ref.workloadNames() {
		for _, trace := range []string{"0", "1"} {
			res, log := invoke(t, refPath, bin, wl, trace)
			want := ref.EndToEnd
			if trace == "1" {
				want = ref.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s --trace %s: %d metrics, BENCHMARK.json lists %d", wl, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s --trace %s: metric %s = %+v, want unit %s", wl, trace, m.Name, got, m.Unit)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s --trace %s: correct=%v attempted=%d failed=%d\n%s", wl, trace, res.Correct, res.Attempted, res.Failed, log)
			}
		}
	}
}

// TestGateTripsOnTamperedDigest checks that the correctness gate fails a
// run whose reference digests do not match: the seed-1 cross-check, and
// the per-analysis digests recorded for the default seed.
func TestGateTripsOnTamperedDigest(t *testing.T) {
	bin := buildTools(t)
	tiny := func(r *reference) {
		w := r.Workloads["frontend-bulk"]
		w.Apps, w.Runs = []string{"polymorph"}, 20
	}
	cases := map[string]func(*reference){
		"cross-check": func(r *reference) {
			tiny(r)
			r.CrossCheck.Apps[0].Digest = "0000000000000000"
		},
		"default-seed digests": func(r *reference) {
			tiny(r)
			r.Workloads["frontend-bulk"].Digests = []string{"polymorph/1=0000000000000000"}
		},
	}
	for name, edit := range cases {
		t.Run(name, func(t *testing.T) {
			res, log := invoke(t, tinyReference(t, edit), bin, "frontend-bulk", "0")
			if res.Correct || res.Failed == 0 {
				t.Errorf("tampered %s: correct=%v failed=%d, want a failed, incorrect run\n%s", name, res.Correct, res.Failed, log)
			}
		})
	}
	res, log := invoke(t, tinyReference(t, tiny), bin, "frontend-bulk", "0")
	if !res.Correct || res.Failed != 0 {
		t.Errorf("untampered reference: correct=%v failed=%d\n%s", res.Correct, res.Failed, log)
	}
}
