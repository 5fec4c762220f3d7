package softjoin

import (
	"fmt"
	"math/rand"
	"testing"

	"accelstream/internal/core"
	"accelstream/internal/stream"
)

// globalArrivalIndex maps each tuple's (side, per-side sequence number)
// back to its position in the pushed input order, so a result can be
// attributed to the global arrival index of its probing tuple — the
// later-arriving of the pair.
func globalArrivalIndex(inputs []core.Input) (idxR, idxS map[uint64]int) {
	idxR, idxS = map[uint64]int{}, map[uint64]int{}
	var nr, ns uint64
	for i, in := range inputs {
		if in.Side == stream.SideR {
			idxR[nr] = i
			nr++
		} else {
			idxS[ns] = i
			ns++
		}
	}
	return idxR, idxS
}

// TestOrderedReleaseMatchesOracle: ordered mode under slab emission must
// release results sorted by the arrival index of the probing tuple, for
// any core count, batch size, and scheduler interleaving — and the
// multiset must still equal the oracle exactly. Run with -race to cover
// the slab/pool hand-offs.
func TestOrderedReleaseMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 12; trial++ {
		cores := 1 + rng.Intn(8)
		// The engine rounds sub-windows up, so keep the total divisible by
		// the core count or the effective window exceeds the oracle's.
		window := cores * (4 << rng.Intn(4))
		batch := 1 + rng.Intn(9)
		n := 400 + rng.Intn(401)
		inputs := randomWorkload(rng, n, 16)
		t.Run(fmt.Sprintf("cores=%d_w=%d_b=%d_n=%d", cores, window, batch, n), func(t *testing.T) {
			idxR, idxS := globalArrivalIndex(inputs)
			e, err := NewUniFlow(Config{
				NumCores:       cores,
				WindowSize:     window,
				BatchSize:      batch,
				OrderedResults: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Start(); err != nil {
				t.Fatal(err)
			}
			wg, got := drain(e.Results())
			for _, in := range inputs {
				e.Push(in.Side, in.Tuple)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			wg.Wait()
			last := -1
			for i, r := range *got {
				gi := idxR[r.R.Seq]
				if s := idxS[r.S.Seq]; s > gi {
					gi = s
				}
				if gi < last {
					t.Fatalf("result %d released out of order: probing arrival %d after %d", i, gi, last)
				}
				last = gi
			}
			if err := core.VerifyExactlyOnce(window, stream.EquiJoinOnKey(), inputs, *got); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestOrderedReleaseGenericCondition: the same release-order property on
// the generic Scan probe path (a non-equi condition bypasses the fast
// path but still emits through slabs).
func TestOrderedReleaseGenericCondition(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cond := stream.JoinCondition{LHS: stream.FieldKey, RHS: stream.FieldKey, Cmp: stream.CmpLT}
	inputs := randomWorkload(rng, 600, 12)
	idxR, idxS := globalArrivalIndex(inputs)
	e, err := NewUniFlow(Config{
		NumCores:       4,
		WindowSize:     32,
		BatchSize:      5,
		Condition:      cond,
		OrderedResults: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	wg, got := drain(e.Results())
	for _, in := range inputs {
		e.Push(in.Side, in.Tuple)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	last := -1
	for i, r := range *got {
		gi := idxR[r.R.Seq]
		if s := idxS[r.S.Seq]; s > gi {
			gi = s
		}
		if gi < last {
			t.Fatalf("result %d released out of order: probing arrival %d after %d", i, gi, last)
		}
		last = gi
	}
	if err := core.VerifyExactlyOnce(32, cond, inputs, *got); err != nil {
		t.Error(err)
	}
}

// TestReorderBufferAllocFree: once the heap and the output batch have
// reached their steady-state capacity, buffering and releasing results
// through the ordered-mode reorder buffer allocates nothing per result.
func TestReorderBufferAllocFree(t *testing.T) {
	const perCycle, arrivals = 64, 16
	var rb reorderBuffer
	var out []stream.Result
	var base uint64
	cycle := func() {
		// Added out of arrival order, as slabs from independent cores are.
		for i := 0; i < perCycle; i++ {
			idx := base + uint64(i*7%arrivals)
			rb.add(taggedResult{res: stream.Result{R: stream.Tuple{Seq: idx}}, idx: idx})
		}
		base += arrivals
		out = rb.release(base, out[:0])
		if len(out) != perCycle {
			t.Fatalf("released %d of %d results below the watermark", len(out), perCycle)
		}
		for i := 1; i < len(out); i++ {
			if out[i].R.Seq < out[i-1].R.Seq {
				t.Fatalf("release out of arrival order at %d", i)
			}
		}
	}
	cycle() // grow the heap and the output to steady-state capacity
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("%v allocs per %d results released, want 0", allocs, perCycle)
	}
}
