// Package conc holds the tiny concurrency helpers shared by the parallel
// compilation pipeline. The compiler's parallelism is deliberately simple:
// every fan-out is an index space handed out through an atomic counter, so
// results land in pre-sized slices and the output is position-stable (the
// parallel path produces bit-identical results to the serial one).
package conc

import (
	"sync"
	"sync/atomic"
)

// ForEach invokes fn(i) for every i in [0, n) from up to workers
// goroutines. With workers <= 1 it degenerates to a plain loop. fn must
// write only to per-index state; ForEach returns when all calls finished.
func ForEach(n, workers int, fn func(int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// FirstError returns the lowest-index non-nil error, mirroring the error a
// serial loop over the same work would have returned first.
func FirstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Ordered runs produce(i) for every i in [0, n) on up to workers goroutines
// and hands each result to consume on the calling goroutine in index order;
// produce runs at most workers results ahead of consume, so what is in
// flight is bounded whatever n is. With workers <= 1 it is a plain loop. The
// error returned is the first in index order (produce(i)'s before consume's
// of result i) whatever the scheduling; after it nothing more is started,
// and Ordered returns when what was started has ended.
func Ordered[T any](n, workers int, produce func(int) (T, error), consume func(T) error) error {
	type result struct {
		v   T
		err error
	}
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if v, err := produce(i); err != nil {
				return err
			} else if err = consume(v); err != nil {
				return err
			}
		}
		return nil
	}
	// Turn i takes result i-workers out of slot i%workers, starts produce(i)
	// into it, and only then consumes what it took: producers stay busy.
	slots := make([]chan result, workers)
	for w := range slots {
		slots[w] = make(chan result, 1)
	}
	started := 0
	var err error
	for i := 0; i-workers < started; i++ {
		c := slots[i%workers]
		var r result
		if i >= workers {
			if r = <-c; err == nil {
				err = r.err
			}
		}
		if i < n && err == nil {
			started++
			go func() {
				v, err := produce(i)
				c <- result{v, err}
			}()
		}
		if i >= workers && err == nil {
			err = consume(r.v)
		}
	}
	return err
}
