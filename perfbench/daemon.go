package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/trace"
	"repro/internal/workload"
)

// daemonProc is a running statsymd process.
type daemonProc struct {
	cmd  *exec.Cmd
	base string // http://host:port
	done chan struct{}
	out  bytes.Buffer // daemon output after the serving line
}

// startDaemon launches statsymd on a free loopback port over a fresh data
// directory and waits until it answers /v1/healthz.
func startDaemon(ctx context.Context, opts options, spec *daemonSpec, dataDir string, client *http.Client) (*daemonProc, error) {
	cmd := exec.Command(filepath.Join(opts.BinDir, "statsymd"), "-listen", "127.0.0.1:0", "-data", dataDir,
		"-runners", strconv.Itoa(spec.Runners), "-queue-slots", strconv.Itoa(spec.QueueSlots))
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = cmd.Stdout
	// Should the harness die before stop runs, the kernel ends the daemon.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start statsymd: %w", err)
	}
	d := &daemonProc{cmd: cmd, done: make(chan struct{})}
	baseCh := make(chan string, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(stdout)
		announced := false
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "serving jobs on http://"); i >= 0 && !announced {
				announced = true
				url := strings.Fields(line[i+len("serving jobs on "):])[0]
				baseCh <- strings.TrimSuffix(url, "/v1/")
				continue
			}
			d.out.WriteString(line + "\n")
		}
		_ = cmd.Wait()
	}()
	select {
	case d.base = <-baseCh:
	case <-d.done:
		return nil, fmt.Errorf("statsymd exited before serving: %s", d.out.String())
	case <-time.After(20 * time.Second):
		d.stop()
		return nil, fmt.Errorf("statsymd did not start serving within 20s")
	case <-ctx.Done():
		d.stop()
		return nil, ctx.Err()
	}
	for {
		resp, err := client.Get(d.base + "/v1/healthz")
		if err == nil {
			var hv struct {
				State string `json:"state"`
			}
			err = json.NewDecoder(resp.Body).Decode(&hv)
			resp.Body.Close()
			if err == nil && hv.State == "ok" {
				return d, nil
			}
		}
		if ctx.Err() != nil {
			d.stop()
			return nil, ctx.Err()
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM and waits for it to exit, killing
// it if the drain takes too long.
func (d *daemonProc) stop() {
	if d == nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

// job is one scheduled submission of the open-loop load.
type job struct {
	spec     service.JobSpec
	due      time.Time
	sent     time.Time
	submitMS float64
	id       string
	err      string
	refused  bool // the daemon answered 429 (queue full)
	status   service.Status
}

// errRefused marks a submission the daemon refused with 429.
var errRefused = errors.New("refused")

// submit posts one job spec; a 429 is reported as errRefused (open-loop
// load does not retry: a refused job is a failed one).
func submit(client *http.Client, base string, spec service.JobSpec) (string, error) {
	blob, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(blob))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return "", err
	}
	switch resp.StatusCode {
	case http.StatusAccepted:
	case http.StatusTooManyRequests:
		return "", fmt.Errorf("%w: HTTP 429: %s", errRefused, strings.TrimSpace(string(body)))
	default:
		return "", fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	var st service.Status
	if err := json.Unmarshal(body, &st); err != nil {
		return "", err
	}
	return st.ID, nil
}

// listJobs fetches every job's status.
func listJobs(client *http.Client, base string) (map[string]service.Status, error) {
	resp, err := client.Get(base + "/v1/jobs")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var all []service.Status
	if err := json.NewDecoder(resp.Body).Decode(&all); err != nil {
		return nil, err
	}
	out := make(map[string]service.Status, len(all))
	for _, st := range all {
		out[st.ID] = st
	}
	return out, nil
}

// waitJobs polls until every listed job is terminal.
func waitJobs(ctx context.Context, client *http.Client, base string, jobs []*job) error {
	for {
		all, err := listJobs(client, base)
		if err != nil {
			return err
		}
		pending := 0
		for _, j := range jobs {
			if j.id == "" {
				continue
			}
			st := all[j.id]
			j.status = st
			if !st.State.Terminal() {
				pending++
			}
		}
		if pending == 0 {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// postRuns streams NDJSON runs into a named corpus.
func postRuns(client *http.Client, base, name, program string, ndjson []byte) (int, error) {
	url := fmt.Sprintf("%s/v1/corpora/%s/runs?program=%s", base, name, program)
	resp, err := client.Post(url, "application/x-ndjson", bytes.NewReader(ndjson))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("ingest: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	var res service.IngestResult
	if err := json.Unmarshal(body, &res); err != nil {
		return 0, err
	}
	return res.Runs, nil
}

// ndjsonBatches encodes runs as NDJSON request bodies of n runs each.
func ndjsonBatches(runs []trace.Run, n int) ([][]byte, error) {
	var out [][]byte
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range runs {
		if err := enc.Encode(&runs[i]); err != nil {
			return nil, err
		}
		if (i+1)%n == 0 || i == len(runs)-1 {
			out = append(out, append([]byte(nil), buf.Bytes()...))
			buf.Reset()
		}
	}
	return out, nil
}

// ingestStats is what the ingestion stream measured.
type ingestStats struct {
	runs int
	busy time.Duration // time inside ingest requests
	err  error
}

// ingestLoop streams batches into fresh named corpora until stop closes:
// one request at a time, with a pause between requests.
func ingestLoop(client *http.Client, base, program string, batches [][]byte, pause time.Duration, stop <-chan struct{}) ingestStats {
	var s ingestStats
	for i := 0; ; i++ {
		select {
		case <-stop:
			return s
		default:
		}
		t0 := time.Now()
		n, err := postRuns(client, base, fmt.Sprintf("live-%03d", i/len(batches)), program, batches[i%len(batches)])
		s.busy += time.Since(t0)
		if err != nil {
			s.err = err
			return s
		}
		s.runs += n
		select {
		case <-stop:
			return s
		case <-time.After(pause):
		}
	}
}

// jobSpec returns the k-th job of the schedule: tenants in turn, every
// NamedEvery-th job on the named corpus, the rest collect-on-demand jobs
// over the workload's apps and a small set of seed-derived corpus seeds.
func jobSpec(w *workloadSpec, seed int64, k int) service.JobSpec {
	d := w.Daemon
	spec := service.JobSpec{
		Tenant:  fmt.Sprintf("tenant-%d", k%d.Tenants),
		Budgets: service.Budgets{MaxSteps: w.MaxSteps},
	}
	if d.NamedEvery > 0 && k%d.NamedEvery == d.NamedEvery-1 {
		spec.App = d.NamedApp
		spec.Corpus = service.CorpusSpec{Name: "ref-" + d.NamedApp}
		return spec
	}
	// i counts collect-on-demand jobs only, so every app takes its turn.
	i := k
	if d.NamedEvery > 0 {
		i -= k / d.NamedEvery
	}
	spec.App = w.Apps[i%len(w.Apps)]
	spec.Corpus = service.CorpusSpec{Runs: w.Runs, Rate: w.Rate, Seed: corpusSeed(seed, (i/len(w.Apps))%d.UniqueSeeds)}
	return spec
}

// runRung offers one rung's open-loop schedule: job k is due at
// start + k/rate and is sent when due, whatever happened to earlier jobs.
// It returns once every job of the rung is terminal.
func runRung(ctx context.Context, client *http.Client, base string, w *workloadSpec, seed int64, rung, first int, seconds float64, rec *obs.Obs) ([]*job, error) {
	d := w.Daemon
	rate := d.Rungs[rung].Rate
	n := max(1, int(rate*seconds+0.5))
	start := time.Now().Add(20 * time.Millisecond)
	jobs := make([]*job, n)
	for k := range jobs {
		j := &job{spec: jobSpec(w, seed, first+k), due: start.Add(time.Duration(float64(k) / rate * float64(time.Second)))}
		jobs[k] = j
		if wait := time.Until(j.due); wait > 0 {
			time.Sleep(wait)
		}
		j.sent = time.Now()
		_, sp := obs.StartSpan(obs.NewContext(ctx, rec), "bench.submit", obs.A("rung", d.Rungs[rung].Name), obs.A("app", j.spec.App))
		id, err := submit(client, base, j.spec)
		sp.End()
		j.submitMS = float64(time.Since(j.sent).Microseconds()) / 1000
		j.id = id
		if err != nil {
			j.err = err.Error()
			j.refused = errors.Is(err, errRefused)
		}
		if ctx.Err() != nil {
			return jobs, ctx.Err()
		}
	}
	return jobs, waitJobs(ctx, client, base, jobs)
}

// parseTime parses a status timestamp (zero on error).
func parseTime(s string) time.Time {
	t, _ := time.Parse(time.RFC3339Nano, s)
	return t
}

// rungStats summarizes one rung's jobs.
type rungStats struct {
	latency, wait, run []float64
	firstDue, lastDone time.Time
	backlog            int // jobs unfinished when the rung's schedule ended
}

func summarizeRung(jobs []*job, rate float64) rungStats {
	var s rungStats
	end := jobs[len(jobs)-1].due.Add(time.Duration(float64(time.Second) / rate))
	s.firstDue = jobs[0].due
	for _, j := range jobs {
		if j.status.State != service.StateDone {
			continue
		}
		sub, started, fin := parseTime(j.status.Submitted), parseTime(j.status.Started), parseTime(j.status.Finished)
		s.latency = append(s.latency, fin.Sub(j.due).Seconds())
		s.wait = append(s.wait, started.Sub(sub).Seconds())
		s.run = append(s.run, fin.Sub(started).Seconds())
		if fin.After(s.lastDone) {
			s.lastDone = fin
		}
		if fin.After(end) && j.due.Before(end) {
			s.backlog++
		}
	}
	return s
}

// verifyJobs applies the correctness gate to every job: a job must be
// done, a verified vulnerability must be the app's known one, a
// collect-on-demand job's detection digest must equal the in-process
// pipeline's for the same spec, and every job on the named corpus must
// agree. It returns the number of jobs that verified the known
// vulnerability.
func verifyJobs(ctx context.Context, ref *reference, w *workloadSpec, jobs []*job, rep *report) int {
	expected := map[string]string{}
	found := 0
	var named string
	for _, j := range jobs {
		rep.attempted++
		if j.refused {
			// A full queue refusing load is the service working as
			// designed: the job counts as failed, the run stays correct.
			rep.failed++
			fmt.Fprintf(rep.log, "-- job %s (%s) refused: %s\n", j.spec.App, j.spec.Tenant, j.err)
			continue
		}
		if j.err != "" {
			rep.fail("job %s (%s): %s", j.spec.App, j.spec.Tenant, j.err)
			continue
		}
		st := j.status
		if st.State != service.StateDone {
			rep.fail("job %s %s ended %s: %s", j.id, j.spec.App, st.State, st.Error)
			continue
		}
		app, err := apps.Get(j.spec.App)
		if err != nil {
			rep.fail("job %s: %v", j.id, err)
			continue
		}
		if st.Found {
			var fn, kind string
			for _, line := range strings.Split(st.Digest, "\n") {
				if strings.HasPrefix(line, "vuln=") {
					fmt.Sscanf(line, "vuln=%s func=%s", &kind, &fn)
				}
			}
			if !knownSite(ref.sites(app), fn, kind) {
				rep.fail("job %s %s verified %s in %s, the known vulnerabilities are %v", j.id, app.Name, kind, fn, ref.sites(app))
				continue
			}
			found++
		}
		if j.spec.Corpus.Name != "" {
			if named == "" {
				named = st.Digest
			} else if st.Digest != named {
				rep.fail("job %s on corpus %s: digest differs from earlier jobs on the same corpus", j.id, j.spec.Corpus.Name)
			}
			continue
		}
		key := fmt.Sprintf("%s/%d", app.Name, j.spec.Corpus.Seed)
		want, ok := expected[key]
		if !ok {
			cs := j.spec.Corpus
			corpus, err := workload.BuildCorpusCtx(ctx, app, workload.Options{SampleRate: cs.Rate, Seed: cs.Seed, Correct: cs.Runs, Faulty: cs.Runs})
			if err != nil {
				rep.fail("in-process %s: %v", key, err)
				continue
			}
			r, err := core.RunContext(ctx, app.Program(), corpus, w.coreConfig(app))
			if err != nil {
				rep.fail("in-process %s: %v", key, err)
				continue
			}
			want = core.DetectionDigest(r)
			expected[key] = want
		}
		if st.Digest != want {
			rep.fail("job %s %s: daemon digest %q, in-process pipeline %q", j.id, key, st.Digest, want)
		}
	}
	return found
}

// scrapeCounters reads the named counters from the daemon's /metrics.
func scrapeCounters(client *http.Client, base string, names ...string) (map[string]float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && want[f[0]] {
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return nil, err
			}
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}

// runDaemon measures daemon-openloop: set-up (a fresh statsymd healthy and
// one warm-up job done), then the rate ladder with ingestion alongside.
func runDaemon(ctx context.Context, opts options, ref *reference, w *workloadSpec, rep *report) error {
	d := w.Daemon
	// Two load threads (submitter and ingester), two connections at most.
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}, Timeout: 60 * time.Second}
	defer client.CloseIdleConnections()

	var setups []float64
	var dm *daemonProc
	defer func() { dm.stop() }()
	for i := 0; i < ref.SetupRepeats; i++ {
		dm.stop()
		start := time.Now()
		var err error
		dm, err = startDaemon(ctx, opts, d, filepath.Join(opts.WorkDir, fmt.Sprintf("data-%d", i)), client)
		if err != nil {
			return err
		}
		warm := &job{spec: service.JobSpec{Tenant: "warmup", App: w.Apps[0], Corpus: service.CorpusSpec{Runs: 20, Rate: 0.3, Seed: 1}}}
		if warm.id, err = submit(client, dm.base, warm.spec); err != nil {
			return fmt.Errorf("warm-up job: %w", err)
		}
		if err := waitJobs(ctx, client, dm.base, []*job{warm}); err != nil {
			return err
		}
		if warm.status.State != service.StateDone {
			return fmt.Errorf("warm-up job ended %s: %s", warm.status.State, warm.status.Error)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	rep.setE2E("setup_s", median(setups), "s")

	// Untimed preparation: the named corpus jobs read, and the NDJSON
	// batches the ingestion stream writes beside them.
	namedApp, err := apps.Get(d.NamedApp)
	if err != nil {
		return err
	}
	refCorpus, err := workload.BuildCorpusCtx(ctx, namedApp, workload.Options{SampleRate: w.Rate, Seed: corpusSeed(opts.Seed, 1<<20), Correct: w.Runs, Faulty: w.Runs})
	if err != nil {
		return err
	}
	refBatches, err := ndjsonBatches(refCorpus.Runs, len(refCorpus.Runs))
	if err != nil {
		return err
	}
	if _, err := postRuns(client, dm.base, "ref-"+namedApp.Name, namedApp.Name, refBatches[0]); err != nil {
		return err
	}
	liveCorpus, err := workload.BuildCorpusCtx(ctx, namedApp, workload.Options{SampleRate: w.Rate, Seed: corpusSeed(opts.Seed, 1<<21), Correct: w.Runs, Faulty: w.Runs})
	if err != nil {
		return err
	}
	liveBatches, err := ndjsonBatches(liveCorpus.Runs, d.IngestRuns)
	if err != nil {
		return err
	}

	schedule := func(rec *obs.Obs, rungs []int) ([][]*job, ingestStats, time.Duration, error) {
		stop := make(chan struct{})
		var ing ingestStats
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			ing = ingestLoop(client, dm.base, namedApp.Name, liveBatches, time.Duration(d.IngestPauseMS)*time.Millisecond, stop)
		}()
		start := time.Now()
		var all [][]*job
		var err error
		first := 0
		for _, r := range rungs {
			var jobs []*job
			jobs, err = runRung(ctx, client, dm.base, w, opts.Seed, r, first, opts.Seconds/float64(len(d.Rungs)), rec)
			first += len(jobs)
			all = append(all, jobs)
			if err != nil {
				break
			}
		}
		elapsed := time.Since(start)
		close(stop)
		wg.Wait()
		if err == nil {
			err = ing.err
		}
		return all, ing, elapsed, err
	}

	allRungs := make([]int, len(d.Rungs))
	for i := range allRungs {
		allRungs[i] = i
	}
	rungJobs, ing, elapsed, err := schedule(nil, allRungs)
	if err != nil {
		return err
	}
	rss, err := peakRSSMB(strconv.Itoa(dm.cmd.Process.Pid))
	if err != nil {
		return err
	}

	var jobs []*job
	stats := make([]rungStats, len(d.Rungs))
	sustained := 0.0
	for r, js := range rungJobs {
		jobs = append(jobs, js...)
		stats[r] = summarizeRung(js, d.Rungs[r].Rate)
		s := stats[r]
		p90 := quantile(s.latency, 0.9)
		limitBacklog := d.Runners + int(d.Rungs[r].Rate*d.P90LimitS)
		ok := len(s.latency) == len(js) && p90 <= d.P90LimitS && s.backlog <= limitBacklog
		fmt.Fprintf(rep.log, "-- rung %-5s %5.1f jobs/s: %3d jobs, latency p50 %.3fs p90 %.3fs, wait p50 %.3fs, backlog at end %d (limit %d) sustained=%v\n",
			d.Rungs[r].Name, d.Rungs[r].Rate, len(js), quantile(s.latency, 0.5), p90, quantile(s.wait, 0.5), s.backlog, limitBacklog, ok)
		if ok && d.Rungs[r].Rate > sustained {
			sustained = d.Rungs[r].Rate
		}
	}
	low, high := d.rung("low"), d.rung("high")
	byKind := map[string][]float64{}
	for _, j := range rungJobs[low] {
		kind := j.spec.App
		if j.spec.Corpus.Name != "" {
			kind += "(named)"
		}
		byKind[kind] = append(byKind[kind], parseTime(j.status.Finished).Sub(j.due).Seconds())
	}
	for kind, v := range byKind {
		fmt.Fprintf(rep.log, "   %-18s %3d jobs, latency p50 %.3fs\n", kind, len(v), median(v))
	}
	found := verifyJobs(ctx, ref, w, jobs, rep)
	done := 0
	for _, j := range jobs {
		if j.status.State == service.StateDone {
			done++
		}
	}

	var e2eWait, e2eRun []float64
	var batchS float64
	for _, r := range []int{low, high} {
		s := stats[r]
		e2eWait = append(e2eWait, s.wait...)
		e2eRun = append(e2eRun, s.run...)
		batchS += s.lastDone.Sub(s.firstDue).Seconds()
	}
	rep.setE2E("batch_s", batchS, "s")
	// Time to verdict at the low rate; the high rate sits near capacity,
	// where latency follows every fluctuation of the host, and is
	// reported by the job_s_*.high metrics.
	rep.setE2E("verdict_s_p50", median(stats[low].latency), "s")
	rep.setE2E("found_frac", ratio(float64(found), float64(done)), "frac")
	rep.setE2E("peak_rss_mb", rss, "MB")
	fmt.Fprintf(rep.log, "-- %d jobs over %.1fs, %d ingest runs in %.2fs of requests\n", len(jobs), elapsed.Seconds(), ing.runs, ing.busy.Seconds())
	if !opts.Trace {
		return nil
	}

	// Per-layer: the service and corpus layers and the load generator.
	var submitMS, lagMS []float64
	rejected := 0
	for _, j := range jobs {
		submitMS = append(submitMS, j.submitMS)
		lagMS = append(lagMS, float64(j.sent.Sub(j.due).Microseconds())/1000)
		if j.refused {
			rejected++
		}
	}
	counters, err := scrapeCounters(client, dm.base, "statsym_corpus_runs_appended", "statsym_corpus_bytes_written")
	if err != nil {
		return err
	}
	rep.setLayer("service.submit_ms_p90", quantile(submitMS, 0.9), "ms")
	rep.setLayer("service.queue_wait_s_p50", quantile(e2eWait, 0.5), "s")
	rep.setLayer("service.queue_wait_s_p90", quantile(e2eWait, 0.9), "s")
	rep.setLayer("service.run_s_p50", quantile(e2eRun, 0.5), "s")
	rep.setLayer("service.rejected", float64(rejected), "count")
	rep.setLayer("service.queue_depth_max", float64(queueDepthMax(jobs)), "count")
	rep.setLayer("corpus.runs_appended", counters["statsym_corpus_runs_appended"], "count")
	rep.setLayer("corpus.bytes_written", counters["statsym_corpus_bytes_written"], "bytes")
	rep.setLayer("loadgen.lag_ms_p90", quantile(lagMS, 0.9), "ms")
	rep.setLayer("job_s_p50.low", quantile(stats[low].latency, 0.5), "s")
	rep.setLayer("job_s_p90.low", quantile(stats[low].latency, 0.9), "s")
	rep.setLayer("job_s_p50.high", quantile(stats[high].latency, 0.5), "s")
	rep.setLayer("job_s_p90.high", quantile(stats[high].latency, 0.9), "s")
	rep.setLayer("sustained_jobs_per_s", sustained, "1/s")
	rep.setLayer("ingest_runs_per_s", ratio(float64(ing.runs), ing.busy.Seconds()), "1/s")

	// Traced pass: the low rung again, with a span around every
	// submission; the overhead is the change in median job latency.
	recorder := &obs.Recorder{}
	tJobs, _, _, err := schedule(obs.New(recorder), []int{low})
	if err != nil {
		return err
	}
	for _, j := range tJobs[0] {
		if j.status.State != service.StateDone {
			rep.problem("traced pass: job %s ended %s", j.id, j.status.State)
		}
	}
	traced := summarizeRung(tJobs[0], d.Rungs[low].Rate)
	rep.setLayer("trace.overhead_frac", median(traced.latency)/median(stats[low].latency)-1, "frac")
	if err := checkTrace(ctx, opts, recorder.Events(), rep); err != nil {
		return err
	}
	// The in-process layers run inside the daemon, which this harness
	// does not time; daemon-openloop reports them as zero.
	for _, m := range ref.PerLayer {
		if _, ok := rep.layer[m.Name]; !ok {
			rep.setLayer(m.Name, 0, m.Unit)
		}
	}
	return nil
}

// rung returns the index of the named rung, or -1.
func (d *daemonSpec) rung(name string) int {
	for i, r := range d.Rungs {
		if r.Name == name {
			return i
		}
	}
	return -1
}

// queueDepthMax reconstructs the largest number of jobs waiting in the
// queue (submitted, not yet started) from the job timestamps.
func queueDepthMax(jobs []*job) int {
	best := 0
	for _, j := range jobs {
		at := parseTime(j.status.Submitted)
		if at.IsZero() {
			continue
		}
		depth := 0
		for _, k := range jobs {
			sub, started := parseTime(k.status.Submitted), parseTime(k.status.Started)
			if !sub.After(at) && (started.IsZero() || started.After(at)) {
				depth++
			}
		}
		if depth > best {
			best = depth
		}
	}
	return best
}
