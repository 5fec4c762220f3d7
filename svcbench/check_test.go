package main

import (
	"math/rand"
	"testing"

	"accelstream/internal/core"
	"accelstream/internal/stream"
)

// oracleRun generates n inputs and joins them with core.Oracle.
func oracleRun(t *testing.T, g *gen, w int, n int) ([]core.Input, []stream.Result) {
	t.Helper()
	inputs := make([]core.Input, n)
	g.fill(inputs, 0)
	o, err := core.NewOracle(w, stream.EquiJoinOnKey())
	if err != nil {
		t.Fatal(err)
	}
	results, err := o.Run(inputs)
	if err != nil {
		t.Fatal(err)
	}
	return inputs, results
}

// checkAll feeds results to a fresh checker in a shuffled order, as the
// parallel engines deliver them, and returns its mismatch count.
func checkAll(g *gen, w int, n int, results []stream.Result, seed int64) (uint64, string) {
	shuffled := append([]stream.Result(nil), results...)
	rand.New(rand.NewSource(seed)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	c := newChecker(g, w)
	for i := range shuffled {
		c.add(&shuffled[i])
	}
	return c.verify(uint64(n))
}

var checkerCases = []struct {
	name string
	g    gen
	w    int
}{
	{"distinct-keys-probes", gen{seed: 3, batch: 16, probeEvery: 2}, 8},
	{"domain-4", gen{seed: 5, domain: 4, batch: 16}, 8},
	{"domain-32", gen{seed: 7, domain: 32, batch: 16}, 64},
	{"domain-1", gen{seed: 9, domain: 1, batch: 8}, 5},
}

func TestCheckerAgreesWithOracle(t *testing.T) {
	for _, tc := range checkerCases {
		t.Run(tc.name, func(t *testing.T) {
			const n = 4096
			g := tc.g
			inputs, results := oracleRun(t, &g, tc.w, n)
			if len(results) == 0 {
				t.Fatal("workload produced no results; the case checks nothing")
			}
			if err := core.VerifyExactlyOnce(tc.w, stream.EquiJoinOnKey(), inputs, results); err != nil {
				t.Fatalf("oracle disagrees with itself: %v", err)
			}
			if mm, first := checkAll(&g, tc.w, n, results, 1); mm != 0 {
				t.Fatalf("checker rejects the oracle's results: %d mismatches, first: %s", mm, first)
			}
		})
	}
}

func TestCheckerRejectsCorruptedResults(t *testing.T) {
	for _, tc := range checkerCases {
		g := tc.g
		const n = 4096
		inputs, results := oracleRun(t, &g, tc.w, n)
		corrupt := map[string][]stream.Result{
			"dropped":    results[1:],
			"duplicated": append(append([]stream.Result(nil), results...), results[len(results)/2]),
		}
		// A pair of equal-key inputs just out of each other's window.
		if stale, ok := staleResult(&g, tc.w, n); ok {
			corrupt["stale"] = append(append([]stream.Result(nil), results...), stale)
		}
		// A result naming the wrong S tuple for its keys.
		moved := append([]stream.Result(nil), results...)
		moved[0].S.Seq++
		corrupt["wrong-seq"] = moved
		for name, rs := range corrupt {
			t.Run(tc.name+"/"+name, func(t *testing.T) {
				if err := core.VerifyExactlyOnce(tc.w, stream.EquiJoinOnKey(), inputs, rs); err == nil {
					t.Fatal("core.VerifyExactlyOnce accepts the corrupted set; the case is not a corruption")
				}
				if mm, _ := checkAll(&g, tc.w, n, rs, 2); mm == 0 {
					t.Fatal("checker accepts a corrupted result set")
				}
			})
		}
	}
}

// staleResult finds an R/S pair with equal keys where the S tuple had just
// left the window when the R tuple arrived: at R seq a the S window holds
// seqs [a-w, a).
func staleResult(g *gen, w, n int) (stream.Result, bool) {
	for a := uint64(w) + 8; 2*a < uint64(n); a++ {
		ri := indexOf(stream.SideR, a)
		for b := a - uint64(w) - 8; b < a-uint64(w); b++ {
			si := indexOf(stream.SideS, b)
			if g.key(si) == g.key(ri) {
				return stream.Result{
					R: stream.Tuple{Key: g.key(ri), Val: g.val(ri), Seq: a},
					S: stream.Tuple{Key: g.key(si), Val: g.val(si), Seq: b},
				}, true
			}
		}
	}
	return stream.Result{}, false
}

func TestGeneratorProbesArePlanted(t *testing.T) {
	g := gen{seed: 1, batch: 16, probeEvery: 4}
	_, results := oracleRun(t, &g, 64, 16*4*10)
	if len(results) != 10 {
		t.Fatalf("want one result per planted probe pair (10), got %d", len(results))
	}
	for _, r := range results {
		if r.R.Key&probeBit == 0 {
			t.Fatalf("result %v does not join a probe key", r)
		}
	}
}
