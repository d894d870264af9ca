// Package service is the analysis-as-a-service layer behind the statsymd
// daemon: a bounded job queue with per-tenant weighted-fair scheduling, a
// crash-safe append-only job ledger, streaming corpus ingestion into
// sharded segment stores, per-job live progress hubs, and the HTTP/JSON
// API that exposes the whole job lifecycle (submit, status, SSE events,
// report, cancel). The pipeline itself is untouched — every job runs
// through core.RunContext, so an API-submitted job is detection-digest
// byte-identical to the equivalent statsym CLI invocation.
package service

import (
	"fmt"
	"regexp"
	"time"

	"repro/internal/apps"
	"repro/internal/summary"
)

// SpecKind tags a persisted job-spec JSON document so tooling (tracecheck)
// can recognize and validate it standalone.
const SpecKind = "statsymd.jobspec/v1"

// nameRE constrains tenant IDs and corpus names: they appear in metric
// names, directory names, and URLs, so keep them boring.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// Budgets bounds one job's symbolic-execution resources. The zero value
// uses the executor defaults, exactly like an unflagged CLI run.
type Budgets struct {
	// MaxStates bounds live states per candidate attempt.
	MaxStates int `json:"max_states,omitempty"`
	// MaxSteps bounds instructions per candidate attempt.
	MaxSteps int64 `json:"max_steps,omitempty"`
	// CandidateTimeoutMS bounds one candidate attempt's wall clock.
	CandidateTimeoutMS int64 `json:"candidate_timeout_ms,omitempty"`
	// TotalTimeoutMS bounds the whole symbolic-execution phase.
	TotalTimeoutMS int64 `json:"total_timeout_ms,omitempty"`
}

// CorpusSpec names the corpus a job analyzes: either a server-side named
// corpus populated through the streaming ingestion endpoint, or a
// collect-on-demand request (the daemon runs the app's workload monitor
// exactly like the CLI does, so the corpus — and everything downstream —
// is deterministic in (runs, rate, seed)).
type CorpusSpec struct {
	// Name references a corpus ingested via POST /v1/corpora/{name}/runs.
	// Mutually exclusive with the collection fields below.
	Name string `json:"name,omitempty"`

	// Runs is the per-class run count to collect (0: workload default).
	Runs int `json:"runs,omitempty"`
	// Rate is the log sampling rate (0: 0.3, the paper's default).
	Rate float64 `json:"rate,omitempty"`
	// Seed drives input generation and sampling.
	Seed int64 `json:"seed,omitempty"`
}

// JobSpec is the wire form of one analysis job (POST /v1/jobs).
type JobSpec struct {
	// Kind is SpecKind when the spec is persisted standalone; optional on
	// submission.
	Kind string `json:"kind,omitempty"`
	// Tenant attributes the job for fair scheduling and metrics
	// ("" is the anonymous tenant, scheduled like any other).
	Tenant string `json:"tenant,omitempty"`
	// App names the program to analyze (apps.Get name).
	App string `json:"app"`
	// Corpus selects or collects the run corpus.
	Corpus CorpusSpec `json:"corpus"`
	// Budgets bounds the symbolic-execution phase.
	Budgets Budgets `json:"budgets"`

	// Parallel is the candidate-verification worker count (core.Config).
	Parallel int `json:"parallel,omitempty"`
	// Workers is the in-candidate frontier worker count (core.Config).
	Workers int `json:"workers,omitempty"`
	// Scope is the compositional scope policy (summary.ParsePolicy).
	Scope string `json:"scope,omitempty"`
	// Summaries enables memoized path summaries.
	Summaries bool `json:"summaries,omitempty"`
	// Dispatch schedules candidate attempts onto the daemon's configured
	// worker pool (rejected when the daemon has none).
	Dispatch bool `json:"dispatch,omitempty"`
}

// maxEngineFanout bounds per-job parallel/worker requests so one tenant
// cannot oversubscribe the host through a single spec.
const maxEngineFanout = 64

// Problems returns every validation finding (empty: the spec is valid).
// The daemon rejects submissions with problems; tracecheck prints them.
func (s *JobSpec) Problems() []string {
	var ps []string
	if s.Kind != "" && s.Kind != SpecKind {
		ps = append(ps, fmt.Sprintf("kind %q, want %q or empty", s.Kind, SpecKind))
	}
	if s.Tenant != "" && !nameRE.MatchString(s.Tenant) {
		ps = append(ps, fmt.Sprintf("tenant %q: must match %s", s.Tenant, nameRE))
	}
	if s.App == "" {
		ps = append(ps, "missing app")
	} else if _, err := apps.Get(s.App); err != nil {
		ps = append(ps, err.Error())
	}
	c := s.Corpus
	if c.Name != "" {
		if !nameRE.MatchString(c.Name) {
			ps = append(ps, fmt.Sprintf("corpus name %q: must match %s", c.Name, nameRE))
		}
		if c.Runs != 0 || c.Rate != 0 || c.Seed != 0 {
			ps = append(ps, "corpus: name and collection fields (runs/rate/seed) are mutually exclusive")
		}
	} else {
		if c.Runs < 0 || c.Runs > 100000 {
			ps = append(ps, fmt.Sprintf("corpus runs %d out of range [0, 100000]", c.Runs))
		}
		if c.Rate < 0 || c.Rate > 1 {
			ps = append(ps, fmt.Sprintf("corpus rate %g out of range (0, 1]", c.Rate))
		}
	}
	b := s.Budgets
	if b.MaxStates < 0 || b.MaxSteps < 0 || b.CandidateTimeoutMS < 0 || b.TotalTimeoutMS < 0 {
		ps = append(ps, "budgets must be non-negative")
	}
	if s.Parallel < 0 || s.Parallel > maxEngineFanout {
		ps = append(ps, fmt.Sprintf("parallel %d out of range [0, %d]", s.Parallel, maxEngineFanout))
	}
	if s.Workers < 0 || s.Workers > maxEngineFanout {
		ps = append(ps, fmt.Sprintf("workers %d out of range [0, %d]", s.Workers, maxEngineFanout))
	}
	if _, err := summary.ParsePolicy(s.Scope); err != nil {
		ps = append(ps, err.Error())
	}
	return ps
}

// Validate returns an error describing the first validation problem.
func (s *JobSpec) Validate() error {
	if ps := s.Problems(); len(ps) > 0 {
		return fmt.Errorf("job spec: %s", ps[0])
	}
	return nil
}

// rate returns the corpus sampling rate with the CLI default applied.
func (c CorpusSpec) rate() float64 {
	if c.Rate == 0 {
		return 0.3
	}
	return c.Rate
}

// dur converts a millisecond budget to a duration (0 stays 0: unbounded).
func dur(ms int64) time.Duration { return time.Duration(ms) * time.Millisecond }
