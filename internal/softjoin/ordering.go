package softjoin

import "accelstream/internal/stream"

// SplitJoin's "adjustable ordering precision": because the join cores run
// independently, results for later tuples can surface before results for
// earlier ones. The default (relaxed) mode forwards results as they appear
// — maximum throughput. Ordered mode restores deterministic punctuated
// order: results are released sorted by the arrival index of the tuple that
// produced them, gated by the slowest core's progress watermark.

// taggedResult is a result annotated with the global arrival index of the
// probing tuple. In ordered mode cores tag every slab result (resultSlab.idx)
// and the slab header carries the punctuation: the core's processed
// watermark after the batch. Because a core's sends on the shared slab
// channel are received in the order it made them, receiving a slab
// guarantees every result that core produced for earlier arrivals has
// already been received — the property that makes the ordered release safe.
type taggedResult struct {
	res stream.Result
	idx uint64
}

// reorderBuffer gates tagged results on a progress watermark. It is a
// binary min-heap on arrival index over a plain slice, so buffering and
// releasing a result never boxes it.
type reorderBuffer struct {
	heap []taggedResult
}

// add buffers one tagged result.
func (rb *reorderBuffer) add(tr taggedResult) {
	h := append(rb.heap, tr)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p].idx <= h[i].idx {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	rb.heap = h
}

// pop removes and returns the result with the smallest arrival index.
func (rb *reorderBuffer) pop() stream.Result {
	h := rb.heap
	top := h[0].res
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		l := 2*i + 1
		if l >= len(h) {
			break
		}
		m := l
		if r := l + 1; r < len(h) && h[r].idx < h[l].idx {
			m = r
		}
		if h[i].idx <= h[m].idx {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	rb.heap = h
	return top
}

// release appends to out every buffered result whose probing tuple is
// fully processed (arrival index < watermark), in arrival order.
func (rb *reorderBuffer) release(watermark uint64, out []stream.Result) []stream.Result {
	for len(rb.heap) > 0 && rb.heap[0].idx < watermark {
		out = append(out, rb.pop())
	}
	return out
}

// flush appends everything left to out, in order.
func (rb *reorderBuffer) flush(out []stream.Result) []stream.Result {
	for len(rb.heap) > 0 {
		out = append(out, rb.pop())
	}
	return out
}
