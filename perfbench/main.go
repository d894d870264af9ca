// Command perfbench is the repository's benchmark. One invocation runs one
// workload for a fixed time, checks every verdict it produces, and prints
// one JSON result line as the last line of standard output:
//
//	bash perfbench/run.sh --workload thttpd-guided --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics listed in
// BENCHMARK.json; with --trace 1 it carries the per-layer metrics, measured
// by a separate traced pass that calls each layer on its own. The workload
// parameters, the reference digests and the notes on seeds live in
// reference.json beside this file.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// runDeadline bounds one invocation: the benchmark contract requires an
// exit within 180 seconds, and every phase checks this context.
const runDeadline = 170 * time.Second

// options are the command-line settings of one invocation.
type options struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	// Reference is the path of reference.json.
	Reference string
	// BinDir holds the statsymd and tracecheck binaries run.sh builds.
	BinDir string
	// WorkDir is a per-invocation scratch directory (daemon data, traces).
	WorkDir string
}

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates what a workload measured and every problem the
// correctness gate found. Problems make the run incorrect; failures count
// against attempted operations.
type report struct {
	attempted int
	failed    int
	problems  []string
	e2e       map[string]metric
	layer     map[string]metric
	log       io.Writer
}

func newReport(log io.Writer) *report {
	return &report{e2e: map[string]metric{}, layer: map[string]metric{}, log: log}
}

// fail records a failed operation (an analysis or job that errored, was
// refused, or failed the correctness gate).
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.problem(format, args...)
}

// problem records a check failure that makes the run incorrect without
// being an operation of its own (determinism drift, a bad trace).
func (r *report) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	fmt.Fprintln(r.log, "PROBLEM:", msg)
}

func (r *report) setE2E(name string, v float64, unit string) {
	r.e2e[name] = metric{Value: v, Unit: unit}
}

func (r *report) setLayer(name string, v float64, unit string) {
	r.layer[name] = metric{Value: v, Unit: unit}
}

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout))
}

// cli parses args, runs the workload and prints the result. It returns
// the process exit code: 0 whenever a result line was printed.
func cli(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var opts options
	var trace int
	fs.StringVar(&opts.Workload, "workload", "", "workload name (see BENCHMARK.json)")
	fs.Int64Var(&opts.Seed, "seed", 1, "workload seed; every corpus seed is derived from it")
	fs.Float64Var(&opts.Seconds, "seconds", 20, "measurement time")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	fs.StringVar(&opts.Reference, "reference", filepath.Join("perfbench", "reference.json"), "reference.json path")
	fs.StringVar(&opts.BinDir, "bin", filepath.Join(".bench_build", "bin"), "directory holding statsymd and tracecheck")
	fs.StringVar(&opts.WorkDir, "work", "", "scratch directory (default: a fresh one under .bench_build/work)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opts.Trace = trace == 1
	ref, err := loadReference(opts.Reference)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res, err := run(opts, ref, stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// run executes one invocation and assembles its result.
func run(opts options, ref *reference, log io.Writer) (*result, error) {
	w, ok := ref.Workloads[opts.Workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", opts.Workload, strings.Join(ref.workloadNames(), ", "))
	}
	if opts.Seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if opts.WorkDir == "" {
		base := filepath.Join(".bench_build", "work")
		if err := os.MkdirAll(base, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(base, opts.Workload+"-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		opts.WorkDir = dir
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()

	rep := newReport(log)
	fmt.Fprintf(log, "== %s seed=%d seconds=%g trace=%v\n", opts.Workload, opts.Seed, opts.Seconds, opts.Trace)
	crossCheck(ctx, ref, rep)
	var err error
	if w.Kind == kindDaemon {
		err = runDaemon(ctx, opts, ref, w, rep)
	} else {
		err = runCLI(ctx, opts, ref, w, rep)
	}
	if err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, fmt.Errorf("run exceeded its %v deadline", runDeadline)
	}
	rep.setLayer("failed_frac", ratio(float64(rep.failed), float64(rep.attempted)), "frac")
	want := ref.EndToEnd
	got := rep.e2e
	if opts.Trace {
		want, got = ref.PerLayer, rep.layer
	}
	res := &result{
		Correct:   len(rep.problems) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metric{},
	}
	for _, m := range want {
		v, ok := got[m.Name]
		if !ok {
			return nil, fmt.Errorf("workload %s did not measure %s", opts.Workload, m.Name)
		}
		if v.Unit != m.Unit {
			return nil, fmt.Errorf("metric %s measured in %s, BENCHMARK.json says %s", m.Name, v.Unit, m.Unit)
		}
		res.Metrics[m.Name] = v
	}
	printTable(log, res.Metrics)
	if res.Attempted < 1 {
		return nil, fmt.Errorf("workload %s attempted nothing", opts.Workload)
	}
	return res, nil
}

// printTable writes the metrics as an aligned human-readable table.
func printTable(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "   %-28s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
