package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync/atomic"
)

// spanLog records the traced run's spans in memory and writes them out at
// the end. Every batch is a trace (its ID is the batch number): a root
// "batch" span from its due time to its last result, a "send" child for
// the SendBatch call and a "results" child from the first to the last
// result it probed — each result joins the batch that carried its later
// input. The ledger adds one "slice" span per in-process slice.
type spanLog struct {
	first atomic.Uint64 // first traced batch + 1; 0 while tracing is off

	sends []sendSpan // sender-owned, indexed by batch - first
	recvs []recvSpan // receiver-owned, same index
	other []span
}

type sendSpan struct{ due, call, ret int64 }

type recvSpan struct {
	first, last int64
	n           uint32
}

type span struct {
	Trace  uint64 `json:"trace"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      uint64 `json:"n,omitempty"`
}

// maxTracedBatches bounds the span arrays.
const maxTracedBatches = 1 << 18

func newSpanLog() *spanLog {
	return &spanLog{
		sends: make([]sendSpan, maxTracedBatches),
		recvs: make([]recvSpan, maxTracedBatches),
	}
}

// start turns tracing on from batch b.
func (l *spanLog) start(b uint64) { l.first.Store(b + 1) }

func (l *spanLog) slot(b uint64) (int, bool) {
	f := l.first.Load()
	if f == 0 || b+1 < f || b+1-f >= maxTracedBatches {
		return 0, false
	}
	return int(b + 1 - f), true
}

func (l *spanLog) send(b uint64, due, call, ret int64) {
	if i, ok := l.slot(b); ok {
		l.sends[i] = sendSpan{due, call, ret}
	}
}

func (l *spanLog) result(b uint64, at int64) {
	if i, ok := l.slot(b); ok {
		r := &l.recvs[i]
		if r.n == 0 {
			r.first = at
		}
		r.last = at
		r.n++
	}
}

func (l *spanLog) add(s span) { l.other = append(l.other, s) }

// write emits every span as one JSON object per line.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	first := l.first.Load()
	for i := range l.sends {
		s := l.sends[i]
		if s.ret == 0 {
			continue
		}
		b := first - 1 + uint64(i)
		r := l.recvs[i]
		end := s.ret
		if r.n > 0 && r.last > end {
			end = r.last
		}
		_ = enc.Encode(span{Trace: b, Name: "batch", Start: s.due, End: end})
		_ = enc.Encode(span{Trace: b, Name: "send", Parent: "batch", Start: s.call, End: s.ret})
		if r.n > 0 {
			_ = enc.Encode(span{Trace: b, Name: "results", Parent: "batch", Start: r.first, End: r.last, N: uint64(r.n)})
		}
	}
	for _, s := range l.other {
		_ = enc.Encode(s)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
