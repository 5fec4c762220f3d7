package main

import (
	"fmt"

	"accelstream/internal/stream"
)

// checker is the streaming reference checker. The receiver feeds it every
// result as it arrives (add, O(1) each); after the drain, verify replays
// the generated inputs through a reference join built only from the
// generator (O(inputs + results)) and compares:
//
//   - each result's tuples are the generated inputs its sequence numbers
//     name, with equal keys, each inside the other's window at probe time;
//   - the number of results per probe (the later of the pair's inputs);
//   - an order-independent digest of the result PairIDs.
//
// core.Oracle scans the whole window per tuple and is too slow for the
// benchmark's windows; the tests validate this checker against it on small
// prefixes instead.
type checker struct {
	g *gen
	w uint64 // per-stream window, global across shards

	got     []uint8 // results per probing input, indexed by input index
	results uint64
	sum     digest
	bad     uint64 // results that fail the per-result checks
	maxIdx  uint64 // highest probing input index seen, plus one
	firstEr string
}

// digest is an order-independent multiset hash of PairIDs.
type digest struct{ a, b uint64 }

func (d *digest) add(pairID uint64) {
	d.a += mix64(pairID)
	d.b += mix64(pairID ^ 0x6a09e667f3bcc908)
}

func newChecker(g *gen, window int) *checker {
	return &checker{g: g, w: uint64(window)}
}

func (c *checker) fail(format string, args ...any) {
	c.bad++
	if c.firstEr == "" {
		c.firstEr = fmt.Sprintf(format, args...)
	}
}

// add records one received result and returns the input index of its
// probing (later) input.
func (c *checker) add(r *stream.Result) uint64 {
	c.results++
	c.sum.add(r.PairID())
	ri, si := indexOf(stream.SideR, r.R.Seq), indexOf(stream.SideS, r.S.Seq)
	if r.R.Key != c.g.key(ri) || r.R.Val != c.g.val(ri) || r.S.Key != c.g.key(si) || r.S.Val != c.g.val(si) {
		c.fail("result (R %d, S %d) carries tuples that are not the generated inputs", r.R.Seq, r.S.Seq)
	} else if r.R.Key != r.S.Key {
		c.fail("result (R %d, S %d) pairs unequal keys %d and %d", r.R.Seq, r.S.Seq, r.R.Key, r.S.Key)
	}
	// The stored tuple must be among the last w of its side when the
	// probe arrived: at R seq a the S window holds seqs [a-w, a); at S
	// seq b the R window holds [b+1-w, b].
	later := ri
	if si > ri {
		later = si
		if r.R.Seq+c.w < r.S.Seq+1 {
			c.fail("result (R %d, S %d): R tuple had left the window", r.R.Seq, r.S.Seq)
		}
	} else if r.S.Seq+c.w < r.R.Seq {
		c.fail("result (R %d, S %d): S tuple had left the window", r.R.Seq, r.S.Seq)
	}
	for later >= uint64(len(c.got)) {
		c.got = append(c.got, make([]uint8, 1<<20)...)
	}
	if c.got[later] == 255 {
		c.fail("input %d probed more than 254 results", later)
	} else {
		c.got[later]++
	}
	if later+1 > c.maxIdx {
		c.maxIdx = later + 1
	}
	return later
}

// verify replays inputs [0, n) through the reference join and returns the
// number of mismatches (per-result failures, probes with a wrong result
// count, and a digest or total mismatch) with the first one described.
func (c *checker) verify(n uint64) (mismatches uint64, first string) {
	mismatches = c.bad
	first = c.firstEr
	note := func(format string, args ...any) {
		mismatches++
		if first == "" {
			first = fmt.Sprintf(format, args...)
		}
	}
	if c.maxIdx > n {
		note("results name input %d, but only %d inputs were sent", c.maxIdx-1, n)
	}
	ref := newRefJoin(c.g, c.w)
	var want digest
	var wantTotal uint64
	for i := uint64(0); i < n; i++ {
		cnt := ref.push(i, &want)
		wantTotal += cnt
		var got uint64
		if i < uint64(len(c.got)) {
			got = uint64(c.got[i])
		}
		if got != cnt {
			note("input %d probed %d results, reference %d", i, got, cnt)
		}
	}
	if wantTotal != c.results {
		note("received %d results, reference %d", c.results, wantTotal)
	}
	if want != c.sum {
		note("PairID digest differs from the reference")
	}
	return mismatches, first
}

// refJoin is the reference sliding-window equi-join over generated inputs.
// Each side keeps, per key, a chain of its resident sequence numbers
// (newest first): head[key] is the newest, prev[seq%w] the next older.
// A probe walks the other side's chain until it leaves the window, so the
// work is O(matches), and the chain ring needs no expiry pass: a slot is
// only overwritten once its sequence number is out of the window.
type refJoin struct {
	g      *gen
	w      uint64
	heads  [2][]uint64          // dense heads (key < domain), seq+1; 0 = none
	sparse [2]map[uint32]uint64 // probe keys (and all keys of a distinct-key run)
	prev   [2][]uint64          // seq+1 of the next older tuple with the same key
	count  [2]uint64            // tuples seen per side

	out    *[]stream.Result // when set, collects up to outCap results
	outCap int
}

func newRefJoin(g *gen, w uint64) *refJoin {
	j := &refJoin{g: g, w: w}
	for s := 0; s < 2; s++ {
		if g.domain > 0 {
			j.heads[s] = make([]uint64, g.domain)
		}
		j.sparse[s] = make(map[uint32]uint64)
		j.prev[s] = make([]uint64, w)
	}
	return j
}

// tracked reports whether key can match at all: keys of a bounded domain
// and probe keys can; a regular key of a distinct-key run cannot.
func (j *refJoin) tracked(key uint32) bool {
	return key < j.g.domain || key&probeBit != 0
}

func (j *refJoin) head(s int, key uint32) uint64 {
	if key < j.g.domain {
		return j.heads[s][key]
	}
	return j.sparse[s][key]
}

func (j *refJoin) setHead(s int, key uint32, h uint64) {
	if key < j.g.domain {
		j.heads[s][key] = h
	} else {
		j.sparse[s][key] = h
	}
}

func (j *refJoin) result(rs, ss uint64) stream.Result {
	ri, si := indexOf(stream.SideR, rs), indexOf(stream.SideS, ss)
	return stream.Result{
		R: stream.Tuple{Key: j.g.key(ri), Val: j.g.val(ri), Seq: rs},
		S: stream.Tuple{Key: j.g.key(si), Val: j.g.val(si), Seq: ss},
	}
}

// push processes input i: it probes the other side's window, adds the
// expected PairIDs to d, inserts i into its own side, and returns the
// expected number of results i probes.
func (j *refJoin) push(i uint64, d *digest) uint64 {
	own := int(i & 1)
	other := 1 - own
	key := j.g.key(i)
	seq := i >> 1
	if !j.tracked(key) {
		j.count[own]++
		return 0
	}
	// The other window holds its last w tuples.
	var lo uint64
	if j.count[other] > j.w {
		lo = j.count[other] - j.w
	}
	var cnt uint64
	for h := j.head(other, key); h != 0 && h-1 >= lo; h = j.prev[other][(h-1)%j.w] {
		s := h - 1
		cnt++
		rs, ss := seq, s
		if own == 1 {
			rs, ss = s, seq
		}
		d.add(rs<<32 | ss&0xFFFFFFFF)
		if j.out != nil && len(*j.out) < j.outCap {
			*j.out = append(*j.out, j.result(rs, ss))
		}
	}
	j.prev[own][seq%j.w] = j.head(own, key)
	j.setHead(own, key, seq+1)
	j.count[own]++
	return cnt
}
