package core

import (
	"context"

	"repro/internal/bytecode"
	"repro/internal/corpus"
	"repro/internal/obs"
	"repro/internal/trace"
)

// RunStore executes the StatSym pipeline over an on-disk segmented corpus
// store instead of an in-memory corpus. See RunStoreContext.
func RunStore(prog *bytecode.Program, store *corpus.Store, cfg Config) (*Report, error) {
	return RunStoreContext(context.Background(), prog, store, cfg)
}

// RunStoreContext is RunContext with the statistical front end streaming
// straight off the corpus store: one bounded-memory pass over the segments
// (block buffer + value sketches + transition counters, never the corpus)
// feeds the same body as the in-memory pipeline, so the Report modulo
// timings is identical to RunContext's on the same runs. Report.LogBytes
// is the store's on-disk (compressed) size here, the store-path analogue
// of the in-memory corpus's serialized size.
func RunStoreContext(ctx context.Context, prog *bytecode.Program, store *corpus.Store, cfg Config) (*Report, error) {
	if store.Obs == nil {
		store.Obs = obs.FromContext(ctx)
	}
	return runAnalysis(ctx, prog, runSource{
		program:  store.Program(),
		logBytes: int(store.TotalBytes()),
		open:     func() trace.RunIterator { return store.Iter() },
		attrs:    []obs.Attr{obs.A("store", store.Dir())},
	}, cfg)
}
