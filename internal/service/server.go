package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/live"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Config sizes and wires one daemon instance.
type Config struct {
	// DataDir holds the job ledger and the named-corpus stores.
	DataDir string
	// QueueSlots bounds jobs waiting for a runner (default 32). A full
	// queue rejects submissions with 429 + Retry-After.
	QueueSlots int
	// Runners is the concurrent job runner count (default 2).
	Runners int
	// DrainTimeout is how long a graceful drain lets in-flight jobs finish
	// before cancelling them into the interrupted state (default 30s).
	DrainTimeout time.Duration

	// WorkerAddrs lists dispatch worker processes; jobs submitted with
	// dispatch=true verify candidates on this pool. Empty: such jobs are
	// rejected at admission.
	WorkerAddrs []string
	// UnitDeadline bounds one remote dispatch unit (0: dispatch default).
	UnitDeadline time.Duration
	// DispatchLog appends scheduling events for dispatched jobs.
	DispatchLog string
	// CacheDir attaches the persistent solver cache to every job.
	CacheDir string
	// Shards is the fan-out for newly created named corpora (0: default).
	Shards int
}

func (c Config) withDefaults() Config {
	if c.QueueSlots <= 0 {
		c.QueueSlots = 32
	}
	if c.Runners <= 0 {
		c.Runners = 2
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	return c
}

// Service is the statsymd daemon core: admission, the fair queue, the
// runner pool, the job table, the ledger, and the HTTP API over them.
type Service struct {
	cfg     Config
	ledger  *Ledger
	queue   *fairQueue
	corpora *Corpora

	// o is the daemon-wide Obs (metrics registry shared by every job);
	// set by Start, nil-safe before.
	o *obs.Obs

	mu        sync.Mutex
	jobs      map[string]*Job
	order     []string // job IDs in admission order, for listing
	seq       int64
	draining  bool
	recovered []RecoveredJob

	runnersWG sync.WaitGroup
	started   time.Time
}

// New opens the data dir (ledger + corpora) and replays the ledger for
// jobs interrupted by a previous process. Call Handler to get the API
// mux and Start to launch the runner pool.
func New(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	ledgerPath := filepath.Join(cfg.DataDir, LedgerName)
	recovered, problems, err := Recover(ledgerPath)
	if err != nil {
		return nil, fmt.Errorf("service: recover %s: %w", ledgerPath, err)
	}
	ledger, err := OpenLedger(ledgerPath)
	if err != nil {
		return nil, fmt.Errorf("service: open ledger: %w", err)
	}
	s := &Service{
		cfg:       cfg,
		ledger:    ledger,
		queue:     newFairQueue(cfg.QueueSlots),
		jobs:      map[string]*Job{},
		recovered: recovered,
		started:   time.Now(),
	}
	for _, p := range problems {
		// Recovery problems are diagnostics, not fatal: a torn tail is the
		// expected signature of the crash being recovered from.
		fmt.Printf("statsymd: ledger recovery: %s\n", p)
	}
	return s, nil
}

// Recovered returns the jobs found queued/running in the ledger at open
// (requeued by Start).
func (s *Service) Recovered() []RecoveredJob {
	return append([]RecoveredJob(nil), s.recovered...)
}

// Start attaches the daemon Obs, launches the runner pool, and requeues
// recovered jobs (marking the interrupted → queued transition in the
// ledger). Idempotent per Service; must precede traffic.
func (s *Service) Start(o *obs.Obs) error {
	s.o = o
	s.corpora = NewCorpora(filepath.Join(s.cfg.DataDir, "corpora"), o)
	for i := 0; i < s.cfg.Runners; i++ {
		s.runnersWG.Add(1)
		go s.runner()
	}
	for _, rec := range s.recovered {
		if rec.LastState != StateInterrupted {
			// The previous process died without writing the interrupted
			// record; write it now so the history stays monotonic.
			if err := s.ledger.Append(LedgerRecord{Job: rec.ID, State: StateInterrupted,
				Error: "daemon restarted"}); err != nil {
				return err
			}
		}
		j := newJob(rec.ID, rec.Spec, s.o)
		if err := s.admit(j, true); err != nil {
			return fmt.Errorf("service: requeue %s: %w", rec.ID, err)
		}
	}
	return nil
}

// admit registers j, writes the queued ledger record, and enqueues it.
// requeue marks a recovery admission (job ID already allocated).
func (s *Service) admit(j *Job, requeue bool) error {
	rec := LedgerRecord{Job: j.ID, State: StateQueued, Spec: &j.Spec}
	if err := s.ledger.Append(rec); err != nil {
		return err
	}
	s.mu.Lock()
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.mu.Unlock()
	// Recovery requeues bypass the capacity bound (ForcePush): a crash can
	// leave up to QueueSlots+Runners non-terminal jobs in the ledger, and
	// rejecting the overflow would re-mark them interrupted and brick every
	// subsequent restart. API admissions stay bounded (checked under s.mu
	// in handleSubmit, re-checked by Push here).
	pushed := false
	if requeue {
		pushed = s.queue.ForcePush(j)
	} else {
		pushed = s.queue.Push(j)
	}
	if !pushed {
		// Full (API race) or closed (drain): mark it interrupted so a later
		// restart retries.
		s.setTerminal(j, StateInterrupted, "", nil, "queue full at admission")
		return fmt.Errorf("queue full")
	}
	s.gauge()
	if s.o != nil {
		s.o.Metrics.Counter(obs.MetricServiceJobsSubmitted).Inc()
		if !requeue {
			s.o.Metrics.Counter(obs.ServiceTenantMetric(tenantOrDefault(j.Spec.Tenant))).Inc()
		}
	}
	return nil
}

// newJobIDLocked allocates a fresh job ID under s.mu. Nanosecond submit
// time (not the per-process start second) keeps IDs from colliding with
// jobs recovered from a previous process after a quick restart; the map
// check closes the remainder so an ID can never overwrite a live job or
// extend another job's ledger history.
func (s *Service) newJobIDLocked() string {
	for {
		s.seq++
		id := fmt.Sprintf("j-%d-%06d", time.Now().UnixNano(), s.seq)
		if _, taken := s.jobs[id]; !taken {
			return id
		}
	}
}

func tenantOrDefault(t string) string {
	if t == "" {
		return "anonymous"
	}
	return t
}

// gauge refreshes the queue-depth gauge.
func (s *Service) gauge() {
	if s.o != nil {
		s.o.Metrics.Gauge(obs.MetricServiceQueueDepth).Set(int64(s.queue.Len()))
	}
}

// runner is one worker of the runner pool: pop, run, repeat until drain.
func (s *Service) runner() {
	defer s.runnersWG.Done()
	for {
		j, ok := s.queue.Pop()
		if !ok {
			return
		}
		s.gauge()
		s.runJob(j)
	}
}

// runJob executes one job through the core pipeline and records its
// terminal state.
func (s *Service) runJob(j *Job) {
	ctx, cancel := context.WithCancel(context.Background())
	j.mu.Lock()
	if j.state != StateQueued {
		// Cancelled (or otherwise finished) while queued; nothing to run.
		j.mu.Unlock()
		cancel()
		return
	}
	if j.cancelled {
		// DELETE landed between queue.Pop and here: Remove missed the job
		// and j.cancel was still nil, so the handler could only set the
		// flag. Honour the acknowledged cancel instead of running the job
		// to completion.
		j.mu.Unlock()
		cancel()
		s.setTerminal(j, StateCancelled, "", nil, "")
		return
	}
	j.state = StateRunning
	j.started = time.Now()
	j.cancel = cancel
	j.mu.Unlock()
	if err := s.ledger.Append(LedgerRecord{Job: j.ID, State: StateRunning}); err != nil {
		s.setTerminal(j, StateFailed, "", nil, "ledger: "+err.Error())
		cancel()
		return
	}

	rep, err := s.execute(ctx, j)
	cancel()

	j.mu.Lock()
	userCancelled := j.cancelled
	j.mu.Unlock()
	switch {
	case err != nil && userCancelled:
		s.setTerminal(j, StateCancelled, "", nil, "")
	case err != nil && s.isDraining():
		s.setTerminal(j, StateInterrupted, "", nil, "drain: "+err.Error())
	case err != nil:
		s.setTerminal(j, StateFailed, "", nil, err.Error())
	case rep.Cancelled && userCancelled:
		s.setTerminal(j, StateCancelled, "", rep, "")
	case rep.Cancelled && s.isDraining():
		s.setTerminal(j, StateInterrupted, "", rep, "drain timeout")
	default:
		s.setTerminal(j, StateDone, core.DetectionDigest(rep), rep, "")
	}
}

// execute assembles the job's inputs and runs the pipeline under the
// job's private Obs.
func (s *Service) execute(ctx context.Context, j *Job) (*core.Report, error) {
	app, err := apps.Get(j.Spec.App)
	if err != nil {
		return nil, err
	}
	var c *trace.Corpus
	if name := j.Spec.Corpus.Name; name != "" {
		sh, err := s.corpora.Get(name)
		if err != nil {
			return nil, err
		}
		if sh.Program() != app.Name {
			return nil, fmt.Errorf("corpus %q holds runs of %q, job analyzes %q", name, sh.Program(), app.Name)
		}
		if c, err = sh.Materialize(); err != nil {
			return nil, err
		}
	} else {
		cs := j.Spec.Corpus
		c, err = workload.BuildCorpusCtx(ctx, app, workload.Options{
			SampleRate: cs.rate(),
			Seed:       cs.Seed,
			Correct:    cs.Runs,
			Faulty:     cs.Runs,
		})
		if err != nil {
			return nil, err
		}
	}

	cfg := core.Config{
		Spec:                 app.Spec,
		MaxStates:            j.Spec.Budgets.MaxStates,
		PerCandidateMaxSteps: j.Spec.Budgets.MaxSteps,
		PerCandidateTimeout:  dur(j.Spec.Budgets.CandidateTimeoutMS),
		TotalTimeout:         dur(j.Spec.Budgets.TotalTimeoutMS),
		Parallel:             j.Spec.Parallel,
		Workers:              j.Spec.Workers,
		Scope:                j.Spec.Scope,
		Summaries:            j.Spec.Summaries,
		CacheDir:             s.cfg.CacheDir,
	}
	if j.Spec.Dispatch {
		cfg.Dispatch = true
		cfg.WorkerAddrs = append([]string(nil), s.cfg.WorkerAddrs...)
		cfg.UnitDeadline = s.cfg.UnitDeadline
		cfg.DispatchLog = s.cfg.DispatchLog
	}
	return core.RunContext(obs.NewContext(ctx, j.obs), app.Program(), c, cfg)
}

// setTerminal moves j to a terminal state, persists the transition, and
// closes the job's done channel (ending its SSE streams).
func (s *Service) setTerminal(j *Job, st State, digest string, rep *core.Report, errMsg string) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.state = st
	j.err = errMsg
	j.digest = digest
	j.report = rep
	j.finished = time.Now()
	if j.started.IsZero() {
		j.started = j.finished
	}
	wall := j.finished.Sub(j.started)
	close(j.done)
	j.mu.Unlock()

	if err := s.ledger.Append(LedgerRecord{Job: j.ID, State: st, Digest: digest, Error: errMsg}); err != nil {
		fmt.Printf("statsymd: ledger append %s %s: %v\n", j.ID, st, err)
	}
	if s.o == nil {
		return
	}
	m := s.o.Metrics
	switch st {
	case StateDone:
		m.Counter(obs.MetricServiceJobsCompleted).Inc()
	case StateFailed:
		m.Counter(obs.MetricServiceJobsFailed).Inc()
	case StateCancelled:
		m.Counter(obs.MetricServiceJobsCancelled).Inc()
	case StateInterrupted:
		m.Counter(obs.MetricServiceJobsInterrupted).Inc()
	}
	m.Histogram(obs.MetricServiceJobWallMS, obs.ServiceJobWallBuckets...).Observe(wall.Milliseconds())
}

func (s *Service) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain gracefully shuts the service down: stop admitting (503), mark
// still-queued jobs interrupted, give running jobs until ctx (the
// caller bounds it with DrainTimeout) before cancelling them into the
// interrupted state, then seal the ledger and corpora. Returns when every
// runner has exited.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	s.mu.Unlock()

	// Close the queue: runners finish their current job and exit; jobs
	// never started are interrupted (recovered on restart).
	for _, j := range s.queue.Drain() {
		s.setTerminal(j, StateInterrupted, "", nil, "drain")
	}
	s.gauge()

	// Let in-flight jobs finish within the budget, then cancel them.
	done := make(chan struct{})
	go func() {
		s.runnersWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.mu.Lock()
		for _, j := range s.jobs {
			j.mu.Lock()
			if j.cancel != nil && !j.state.Terminal() {
				j.cancel()
			}
			j.mu.Unlock()
		}
		s.mu.Unlock()
		<-done
	}

	var first error
	if s.corpora != nil {
		if err := s.corpora.Seal(); err != nil {
			first = err
		}
	}
	if err := s.ledger.Seal(); err != nil && first == nil {
		first = err
	}
	if err := s.ledger.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// ---------------------------------------------------------------------------
// HTTP API

// Handler returns the /v1 API mux. Mount it on the live server (or any
// mux) under "/v1/".
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/report", s.handleReport)
	mux.HandleFunc("POST /v1/corpora/{name}/runs", s.handleIngest)
	mux.HandleFunc("GET /v1/corpora", s.handleCorpora)
	mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	return mux
}

// apiError is the uniform JSON error envelope.
func apiError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&spec); err != nil {
		apiError(w, http.StatusBadRequest, "bad job spec: %v", err)
		return
	}
	if ps := spec.Problems(); len(ps) > 0 {
		apiError(w, http.StatusBadRequest, "invalid job spec: %s", ps[0])
		return
	}
	// Stamp the document kind so every persisted copy of the spec (ledger
	// records, status views) is a self-identifying jobspec document.
	spec.Kind = SpecKind
	if spec.Dispatch && len(s.cfg.WorkerAddrs) == 0 {
		apiError(w, http.StatusBadRequest, "job requests dispatch but the daemon has no workers (-dispatch)")
		return
	}
	if name := spec.Corpus.Name; name != "" {
		if _, err := s.corpora.Get(name); err != nil {
			apiError(w, http.StatusNotFound, "%v", err)
			return
		}
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		apiError(w, http.StatusServiceUnavailable, "daemon is draining")
		return
	}
	if s.queue.Len() >= s.cfg.QueueSlots {
		s.mu.Unlock()
		if s.o != nil {
			s.o.Metrics.Counter(obs.MetricServiceJobsRejected).Inc()
		}
		w.Header().Set("Retry-After", "5")
		apiError(w, http.StatusTooManyRequests, "queue full (%d slots)", s.cfg.QueueSlots)
		return
	}
	id := s.newJobIDLocked()
	s.mu.Unlock()

	j := newJob(id, spec, s.o)
	if err := s.admit(j, false); err != nil {
		apiError(w, http.StatusServiceUnavailable, "admit: %v", err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+id)
	writeJSON(w, http.StatusAccepted, j.status())
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	out := make([]Status, 0, len(ids))
	for _, id := range ids {
		if j := s.job(id); j != nil {
			out = append(out, j.status())
		}
	}
	if t := r.URL.Query().Get("tenant"); t != "" {
		filtered := out[:0]
		for _, st := range out {
			if st.Tenant == t {
				filtered = append(filtered, st)
			}
		}
		out = filtered
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Service) job(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		apiError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		apiError(w, http.StatusNotFound, "no such job")
		return
	}
	j.mu.Lock()
	if j.state.Terminal() {
		st := j.state
		j.mu.Unlock()
		apiError(w, http.StatusConflict, "job already %s", st)
		return
	}
	j.cancelled = true
	cancel := j.cancel
	j.mu.Unlock()
	if s.queue.Remove(j) {
		// Never started: terminal immediately.
		s.setTerminal(j, StateCancelled, "", nil, "")
		s.gauge()
	} else if cancel != nil {
		// Running: the pipeline winds down and runJob records the state.
		cancel()
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		apiError(w, http.StatusNotFound, "no such job")
		return
	}
	tick := time.Second
	if s.o != nil && s.o.Interval > 0 {
		tick = s.o.Interval
	}
	live.ServeSSE(w, r, j.obs, j.hub, tick, j.done)
}

func (s *Service) handleReport(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		apiError(w, http.StatusNotFound, "no such job")
		return
	}
	rep := j.Report()
	st := j.status()
	if rep == nil {
		apiError(w, http.StatusConflict, "job is %s: no report yet", st.State)
		return
	}
	now := time.Now().UTC().Format(time.RFC3339)
	if r.URL.Query().Get("format") == "html" {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		if err := report.WriteHTML(w, rep, now); err != nil {
			apiError(w, http.StatusInternalServerError, "render: %v", err)
		}
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"job":              st,
		"detection_digest": st.Digest,
		"report":           report.Build(rep, now),
	})
}

func (s *Service) handleIngest(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	program := r.URL.Query().Get("program")
	if !nameRE.MatchString(name) {
		apiError(w, http.StatusBadRequest, "corpus name %q: must match %s", name, nameRE)
		return
	}
	if program == "" {
		apiError(w, http.StatusBadRequest, "missing ?program= query parameter")
		return
	}
	if _, err := apps.Get(program); err != nil {
		apiError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if s.isDraining() {
		apiError(w, http.StatusServiceUnavailable, "daemon is draining")
		return
	}
	res, err := s.corpora.Ingest(name, program, s.cfg.Shards, r.Body)
	if err != nil {
		apiError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Service) handleCorpora(w http.ResponseWriter, r *http.Request) {
	infos, err := s.corpora.List()
	if err != nil {
		apiError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if infos == nil {
		infos = []CorpusInfo{}
	}
	writeJSON(w, http.StatusOK, infos)
}

// healthView is the GET /v1/healthz payload.
type healthView struct {
	State      string         `json:"state"` // "ok" or "draining"
	UptimeMS   int64          `json:"uptime_ms"`
	QueueDepth int            `json:"queue_depth"`
	Runners    int            `json:"runners"`
	QueueSlots int            `json:"queue_slots"`
	Jobs       map[string]int `json:"jobs"`
	Dispatch   int            `json:"dispatch_workers"`
}

func (s *Service) handleHealth(w http.ResponseWriter, r *http.Request) {
	hv := healthView{
		State:      "ok",
		UptimeMS:   time.Since(s.started).Milliseconds(),
		QueueDepth: s.queue.Len(),
		Runners:    s.cfg.Runners,
		QueueSlots: s.cfg.QueueSlots,
		Jobs:       map[string]int{},
		Dispatch:   len(s.cfg.WorkerAddrs),
	}
	s.mu.Lock()
	if s.draining {
		hv.State = "draining"
	}
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	for _, id := range ids {
		if j := s.job(id); j != nil {
			hv.Jobs[string(j.State())]++
		}
	}
	writeJSON(w, http.StatusOK, hv)
}

// MarshalSpec pretty-prints a spec with its kind stamped — the standalone
// form tracecheck validates.
func MarshalSpec(spec JobSpec) ([]byte, error) {
	spec.Kind = SpecKind
	return json.MarshalIndent(spec, "", "  ")
}

// retryAfter parses a Retry-After header (seconds form) for the loadtest
// client's backoff.
func retryAfter(h http.Header) time.Duration {
	if v := h.Get("Retry-After"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return time.Duration(n) * time.Second
		}
	}
	return time.Second
}
