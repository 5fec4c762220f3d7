package stream

import "sync"

// ResultBatch is the unit in which join results move between goroutines:
// a join core's whole result vector for one input batch, a decoded Results
// frame, or a reorder release. It is the software counterpart of the
// gathering network's burst drain — the paper's GNode tree grants a core
// the result bus and empties its FIFO in one go instead of arbitrating per
// result — so a hand-off costs one channel operation per batch, not per
// match.
//
// Ownership travels with the pointer: the sender never touches a batch
// after sending it, and the receiver calls Release exactly once when it no
// longer reads Items (copy out what it must keep). This mirrors the
// no-retain rule for input batches.
type ResultBatch struct {
	Items []Result
}

// maxPooledResults bounds the capacity a recycled batch may keep, so one
// pathological high-selectivity burst cannot pin megabytes in the pool.
const maxPooledResults = 1 << 15

var resultBatchPool = sync.Pool{New: func() any { return new(ResultBatch) }}

// GetResultBatch returns an empty batch from the pool.
func GetResultBatch() *ResultBatch {
	b := resultBatchPool.Get().(*ResultBatch)
	b.Items = b.Items[:0]
	return b
}

// Release hands the batch back to the pool. The caller must not touch it
// afterwards.
func (b *ResultBatch) Release() {
	if cap(b.Items) <= maxPooledResults {
		resultBatchPool.Put(b)
	}
}

// unbatchedDepth buffers one full result frame between the flattening
// goroutine and a per-result consumer.
const unbatchedDepth = 1024

// Unbatcher is the per-result edge over a batch stream: the one place a
// single Result is sent on a channel. The flattening goroutine starts on
// the first Results call, so an owner that only ever hands out its batch
// stream pays nothing for it. A batch stream has one consumer: once
// Results has been called, nothing else may receive from the source.
type Unbatcher struct {
	once sync.Once
	out  chan Result
}

// Results returns src flattened into a per-result channel, releasing each
// batch once its results are sent. The channel closes after src closes and
// every result has been delivered. Every call must pass the same src.
func (u *Unbatcher) Results(src <-chan *ResultBatch) <-chan Result {
	u.once.Do(func() {
		u.out = make(chan Result, unbatchedDepth)
		go func() {
			defer close(u.out)
			for b := range src {
				for _, r := range b.Items {
					u.out <- r
				}
				b.Release()
			}
		}()
	})
	return u.out
}
