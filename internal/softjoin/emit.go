package softjoin

import (
	"sync"
	"sync/atomic"

	"accelstream/internal/core"
	"accelstream/internal/stream"
)

// Hot-path pooling: the software engines' analogue of the FPGA designs'
// zero-dynamic-allocation data path. Input batches, slabs and result
// batches are recycled through sync.Pools so the steady-state
// ingest→probe→emit pipeline performs no heap allocation and one channel
// hand-off per batch (not per tuple or per match) — the software stand-in
// for the hardware's wide result bus (Figs. 10–13).

// maxPooledItems bounds the capacity a recycled slab or input batch may
// retain. A pathological high-selectivity batch can grow a slab to
// megabytes; dropping oversized backing arrays keeps the pools from
// pinning that memory forever.
const maxPooledItems = 1 << 15

// inputBatch is one distribution batch shared read-only by every join
// core. refs counts the cores still processing it; the last core to
// finish returns it to the pool.
type inputBatch struct {
	refs  atomic.Int32
	items []core.Input
}

var inputBatchPool = sync.Pool{New: func() any { return new(inputBatch) }}

func getInputBatch() *inputBatch {
	b := inputBatchPool.Get().(*inputBatch)
	b.items = b.items[:0]
	return b
}

// release drops one core's reference; the last reference recycles the
// batch. The atomic decrement is the synchronization point that makes the
// reuse race-free.
func (b *inputBatch) release() {
	if b.refs.Add(-1) == 0 {
		if cap(b.items) <= maxPooledItems {
			inputBatchPool.Put(b)
		}
	}
}

// resultSlab is one core's output for one input batch: every match the
// batch produced on that core, as a plain result batch. In relaxed mode
// the core sends that batch itself onto the engine's result stream with a
// single channel send. Ordered mode also needs, per result, the arrival
// index of its probing tuple (idx, parallel to Items) and the punctuation
// riding in the header — the core's processed watermark after the batch —
// so there the whole slab goes to the reorder goroutine instead.
type resultSlab struct {
	*stream.ResultBatch
	idx       []uint64
	core      int
	processed uint64
}

// tag records the arrival index of the last n results appended to the
// slab. Only ordered mode tags.
func (s *resultSlab) tag(idx uint64, n int) {
	for ; n > 0; n-- {
		s.idx = append(s.idx, idx)
	}
}

var slabPool = sync.Pool{New: func() any { return &resultSlab{ResultBatch: new(stream.ResultBatch)} }}

func getSlab() *resultSlab {
	s := slabPool.Get().(*resultSlab)
	s.Items = s.Items[:0]
	s.idx = s.idx[:0]
	return s
}

func putSlab(s *resultSlab) {
	if cap(s.Items) <= maxPooledItems && cap(s.idx) <= maxPooledItems {
		slabPool.Put(s)
	}
}
