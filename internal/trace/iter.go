package trace

import (
	"context"
	"io"
)

// RunIterator is a pull-based stream of runs: Next returns runs in corpus
// order and io.EOF after the last one. It is the seam between the
// statistical front-end and corpus storage — an in-memory Corpus and an
// on-disk segmented store (internal/corpus) both satisfy it, so analysis
// code can make one bounded-memory pass without knowing where runs live.
type RunIterator interface {
	Next() (*Run, error)
}

// corpusIter adapts an in-memory Corpus to RunIterator.
type corpusIter struct {
	c *Corpus
	i int
}

func (it *corpusIter) Next() (*Run, error) {
	if it.i >= len(it.c.Runs) {
		return nil, io.EOF
	}
	r := &it.c.Runs[it.i]
	it.i++
	return r, nil
}

// Iter returns an iterator over the corpus's runs in order.
func (c *Corpus) Iter() RunIterator { return &corpusIter{c: c} }

// Each feeds every remaining run of it to fn in order, checking ctx before
// each one, and closes it if it is an io.Closer. It returns nil at the end
// of the stream, ctx's error once ctx is done, or the iterator's first
// error.
func Each(ctx context.Context, it RunIterator, fn func(*Run)) error {
	if c, ok := it.(io.Closer); ok {
		defer c.Close()
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		run, err := it.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		fn(run)
	}
}
