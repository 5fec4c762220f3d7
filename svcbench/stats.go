package main

import (
	"math/bits"
	"sort"
	"time"
)

// hist is a log-linear latency histogram over nanoseconds: 64 linear
// sub-buckets per power of two, so a quantile is exact to about 1.6%.
// It records without allocating, in O(1).
type hist struct {
	counts [64 * 64]uint64
	n      uint64
}

func (h *hist) add(d time.Duration) {
	v := uint64(0)
	if d > 0 {
		v = uint64(d)
	}
	h.counts[bucketOf(v)]++
	h.n++
}

func bucketOf(v uint64) int {
	if v < 128 {
		return int(v)
	}
	exp := bits.Len64(v) - 7 // v>>exp is in [64, 128)
	return exp*64 + int(v>>uint(exp))
}

// bucketMid returns a representative value of bucket b.
func bucketMid(b int) float64 {
	if b < 128 {
		return float64(b)
	}
	exp := b/64 - 1
	m := b - exp*64
	lo := uint64(m) << uint(exp)
	return float64(lo) + float64(uint64(1)<<uint(exp))/2
}

// quantile returns the q-quantile in nanoseconds (0 when empty).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q*float64(h.n-1)) + 1
	var seen uint64
	for b, c := range h.counts {
		seen += c
		if seen >= rank {
			return bucketMid(b)
		}
	}
	return bucketMid(len(h.counts) - 1)
}

// sliceWidth is the stretch of the timed phase each latency quantile is
// taken over.
const sliceWidth = 250 * time.Millisecond

// sliced keeps one histogram per sliceWidth of the timed phase. A run
// reports the median across its slices of each slice's quantile, so a
// stretch lost to a noisy neighbour or a GC cycle moves the figure by one
// rank instead of owning the tail. The last slice collects everything
// after the phase (the drain) and is left out of the median.
type sliced struct {
	slices []hist
}

func newSliced(dur time.Duration) *sliced {
	return &sliced{slices: make([]hist, int(dur/sliceWidth)+1)}
}

// add records d, observed rel nanoseconds into the phase.
func (s *sliced) add(rel int64, d time.Duration) {
	i := int(rel / int64(sliceWidth))
	if i < 0 {
		i = 0
	}
	if i >= len(s.slices) {
		i = len(s.slices) - 1
	}
	s.slices[i].add(d)
}

func (s *sliced) whole() []hist { return s.slices[:len(s.slices)-1] }

// medianQuantile returns the median over the whole slices holding samples
// of each slice's q-quantile, in milliseconds, and the samples behind it.
func (s *sliced) medianQuantile(q float64) (ms float64, samples uint64) {
	var vals []float64
	for i := range s.whole() {
		h := &s.slices[i]
		samples += h.n
		if h.n > 0 {
			vals = append(vals, h.quantile(q)/1e6)
		}
	}
	return median(vals), samples
}

// perSlice returns each whole slice's q-quantile in milliseconds.
func (s *sliced) perSlice(q float64) []float64 {
	out := make([]float64, 0, len(s.slices))
	for i := range s.whole() {
		out = append(out, s.slices[i].quantile(q)/1e6)
	}
	return out
}

// mark is a counter read at a second boundary of the timed phase, with
// the CPU time streamd and the load generator had used by then.
type mark struct {
	at             int64
	n              uint64
	server, client time.Duration
}

// markDue reports whether a mark is owed: one per whole second elapsed.
func markDue(marks []mark, rel int64) bool {
	return int64(len(marks)) <= rel/int64(time.Second)
}

// perSecond returns, for each second between consecutive marks, the
// counter's rate per second, and the CPU seconds of each process per
// million counted items.
func perSecond(marks []mark) (rate, serverPerM, clientPerM []float64) {
	for i := 0; i+1 < len(marks); i++ {
		a, b := marks[i], marks[i+1]
		dn := float64(b.n - a.n)
		if dn == 0 || b.at == a.at {
			continue
		}
		rate = append(rate, dn/float64(b.at-a.at)*1e9)
		serverPerM = append(serverPerM, (b.server-a.server).Seconds()/dn*1e6)
		clientPerM = append(clientPerM, (b.client-a.client).Seconds()/dn*1e6)
	}
	return rate, serverPerM, clientPerM
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	v := append([]float64(nil), vals...)
	sort.Float64s(v)
	if len(v)%2 == 1 {
		return v[len(v)/2]
	}
	return (v[len(v)/2-1] + v[len(v)/2]) / 2
}
