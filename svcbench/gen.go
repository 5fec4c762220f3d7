package main

import (
	"accelstream/internal/core"
	"accelstream/internal/stream"
)

// gen is the deterministic input generator. Input i of a run is a pure
// function of the seed and i, so the load generator, the reference
// checker and the in-process ledger slices regenerate any tuple without
// storing the stream.
//
// The streams alternate: even indices are R, odd indices are S. The server
// numbers each side in wire order, so R seq n is input 2n and S seq n is
// input 2n+1 — the mapping the checker relies on to turn a result's
// sequence numbers back into input indices.
type gen struct {
	seed uint64
	// domain bounds the uniform key distribution; 0 gives every regular
	// tuple a distinct key, so only planted probes can match.
	domain uint32
	// batch is the tuples per batch; probes are planted at batch edges.
	batch int
	// probeEvery plants one R/S probe pair with a reserved unique key in
	// every probeEvery-th batch (0: none).
	probeEvery int
}

// probeBit marks the reserved probe keys. Regular keys of a distinct-key
// run stay below it, so a probe can only ever match its partner.
const probeBit = 1 << 31

// mix64 is the splitmix64 finalizer: a cheap bijective scrambler.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func sideOf(i uint64) stream.Side {
	if i&1 == 0 {
		return stream.SideR
	}
	return stream.SideS
}

// indexOf maps a per-side sequence number back to its input index.
func indexOf(side stream.Side, seq uint64) uint64 {
	if side == stream.SideR {
		return 2 * seq
	}
	return 2*seq + 1
}

// key returns the join key of input i.
func (g *gen) key(i uint64) uint32 {
	if g.probeEvery > 0 {
		b := i / uint64(g.batch)
		if b%uint64(g.probeEvery) == uint64(g.probeEvery-1) {
			pos := i % uint64(g.batch)
			if pos == 0 || pos == uint64(g.batch-1) {
				return probeBit | uint32(b/uint64(g.probeEvery))&(probeBit-1)
			}
		}
	}
	if g.domain > 0 {
		return uint32(mix64(g.seed^(i*0x9e3779b97f4a7c15)) % uint64(g.domain))
	}
	// An odd multiplier plus an offset is a bijection mod 2^31, so no two
	// regular inputs of one run share a key.
	return uint32((i*0x5851f42d4c957f2d + g.seed) & (probeBit - 1))
}

// val returns the payload of input i.
func (g *gen) val(i uint64) uint32 {
	return uint32(mix64(g.seed + i))
}

// fill writes inputs [start, start+len(dst)) into dst.
func (g *gen) fill(dst []core.Input, start uint64) {
	for j := range dst {
		i := start + uint64(j)
		dst[j] = core.Input{Side: sideOf(i), Tuple: stream.Tuple{Key: g.key(i), Val: g.val(i)}}
	}
}

// digest hashes inputs [0, n): two runs with equal digests fed streamd
// byte-identical streams.
func (g *gen) digest(n uint64) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := uint64(0); i < n; i++ {
		h = mix64(h ^ uint64(g.key(i))<<32 ^ uint64(g.val(i)) ^ i&1<<63)
	}
	return h
}
