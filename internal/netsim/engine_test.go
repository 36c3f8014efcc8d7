package netsim

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/superip"
	"repro/internal/topo"
)

// injectors walks one cycle of the skip sampler over n nodes and appends
// the injecting indices to buf[:0].
func injectors(n int64, s float64, rng *rand.Rand, buf []int64) []int64 {
	buf = buf[:0]
	for i := nextInjector(-1, n, s, rng); i < n; i = nextInjector(i, n, s, rng) {
		buf = append(buf, i)
	}
	return buf
}

// binomialBins partitions the support of Binomial(n, p) into consecutive
// bins with expected count >= 5 over rounds trials. upper[b] is the largest
// k in bin b (the last bin is open above) and want[b] its expected count.
func binomialBins(n int64, p float64, rounds int) (upper []int64, want []float64) {
	lgN, _ := math.Lgamma(float64(n) + 1)
	mean, sd := float64(n)*p, math.Sqrt(float64(n)*p*(1-p))
	acc, cum := 0.0, 0.0
	for k := int64(0); k <= n && float64(k) <= mean+12*sd+10; k++ {
		lgK, _ := math.Lgamma(float64(k) + 1)
		lgNK, _ := math.Lgamma(float64(n-k) + 1)
		pmf := math.Exp(lgN - lgK - lgNK + float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p))
		acc += pmf * float64(rounds)
		cum += pmf
		if acc >= 5 {
			upper, want = append(upper, k), append(want, acc)
			acc = 0
		}
	}
	tail := acc + (1-cum)*float64(rounds)
	if tail < 0 {
		tail = 0
	}
	want[len(want)-1] += tail
	return upper, want
}

// chiSquareCritical is the upper 1e-4 quantile of the chi-square law with df
// degrees of freedom (Wilson–Hilferty).
func chiSquareCritical(df int) float64 {
	const z = 3.719 // upper 1e-4 normal quantile
	d := float64(df)
	c := 1 - 2/(9*d) + z*math.Sqrt(2/(9*d))
	return d * c * c * c
}

// TestNextInjectorBinomialLaw checks the per-cycle injection count of the
// skip sampler against the exact Binomial(n, rate) pmf with a chi-square
// test, from one node to 2^20 and from light load to rate 0.9.
func TestNextInjectorBinomialLaw(t *testing.T) {
	cases := []struct {
		n    int64
		rate float64
	}{
		{1, 0.5}, {1, 0.9},
		{8, 0.5}, {8, 0.9},
		{16, 0.1}, {16, 0.5}, {16, 0.9},
		{1024, 0.02}, {1024, 0.5}, {1024, 0.9},
		{24576, 5e-5}, {24576, 0.02},
		{1<<16 + 1, 2e-5}, {1<<16 + 1, 3e-4},
		{1 << 20, 1e-5}, {1 << 20, 1e-3},
	}
	const rounds = 4000
	var buf []int64
	for ci, c := range cases {
		rng := rand.New(rand.NewSource(int64(100 + ci)))
		s := skipScale(c.rate)
		upper, want := binomialBins(c.n, c.rate, rounds)
		got := make([]float64, len(want))
		for r := 0; r < rounds; r++ {
			k := int64(len(injectors(c.n, s, rng, buf)))
			b, _ := slices.BinarySearch(upper, k)
			got[min(b, len(got)-1)]++
		}
		chi2 := 0.0
		for b := range want {
			d := got[b] - want[b]
			chi2 += d * d / want[b]
		}
		df := max(len(want)-1, 1)
		if crit := chiSquareCritical(df); chi2 > crit {
			t.Errorf("n=%d rate=%g: chi2 %.1f > %.1f (df %d): observed %v, expected %v",
				c.n, c.rate, chi2, crit, df, got, want)
		}
	}
}

// TestNextInjectorPerNode checks what the count test cannot see: indices
// come out strictly increasing (no node injects twice in a cycle), every
// node injects with the same marginal rate, and neighbouring nodes inject
// independently (both in one cycle at rate^2).
func TestNextInjectorPerNode(t *testing.T) {
	const n, rate, rounds = 64, 0.1, 20000
	rng := rand.New(rand.NewSource(9))
	s := skipScale(rate)
	perNode := make([]float64, n)
	pairs := 0.0
	var buf []int64
	for r := 0; r < rounds; r++ {
		buf = injectors(n, s, rng, buf)
		for j, i := range buf {
			if i < 0 || i >= n || (j > 0 && i <= buf[j-1]) {
				t.Fatalf("round %d: injectors %v not strictly increasing in [0,%d)", r, buf, n)
			}
			perNode[i]++
			if j > 0 && buf[j-1] == i-1 {
				pairs++
			}
		}
	}
	mean, sd := rounds*rate, math.Sqrt(rounds*rate*(1-rate))
	for i, c := range perNode {
		if math.Abs(c-mean) > 5*sd {
			t.Errorf("node %d injected %.0f times, want %.0f ± %.0f", i, c, mean, 5*sd)
		}
	}
	pMean := float64(rounds*(n-1)) * rate * rate
	if pSD := math.Sqrt(pMean); math.Abs(pairs-pMean) > 5*pSD {
		t.Errorf("adjacent nodes injected together %.0f times, want %.0f ± %.0f", pairs, pMean, 5*pSD)
	}
}

// TestNextInjectorEdgeRates drives the sampler at the ends of [0,1] on
// populations up to 2^40: every result lies in (i, n], rate 0 and rate 1
// draw nothing, and huge skips return n instead of overflowing.
func TestNextInjectorEdgeRates(t *testing.T) {
	const big = int64(1) << 40
	check := func(rate float64, i, n, got int64) {
		t.Helper()
		if got <= i || got > n {
			t.Fatalf("rate %g: nextInjector(%d, %d) = %d, outside (%d, %d]", rate, i, n, got, i, n)
		}
	}
	for _, rate := range []float64{0, 1, 1e-300, 1 - 1e-16, 5e-324} {
		cs := &countingSource{src: rand.NewSource(3)}
		rng := rand.New(cs)
		s := skipScale(rate)
		for _, n := range []int64{1, 2, 1024, big} {
			for _, i := range []int64{-1, 0, n / 2, n - 2, n - 1} {
				if i < -1 || i >= n {
					continue
				}
				got := nextInjector(i, n, s, rng)
				check(rate, i, n, got)
				switch {
				case rate == 1 && got != i+1:
					t.Errorf("rate 1: nextInjector(%d, %d) = %d, want %d", i, n, got, i+1)
				case (rate == 0 || rate == 5e-324) && got != n:
					t.Errorf("rate %g: nextInjector(%d, %d) = %d, want %d", rate, i, n, got, n)
				}
			}
			// A whole cycle from the top end of a 2^40 population: the count
			// stays within the nodes walked.
			k, start := int64(0), max(n-1000, -1)
			for i := nextInjector(start, n, s, rng); i < n; i = nextInjector(i, n, s, rng) {
				k++
			}
			if k > n-1-start {
				t.Errorf("rate %g n=%d: %d injectors among the last %d nodes", rate, n, k, n-1-start)
			}
			if rate == 1e-300 && k != 0 {
				t.Errorf("rate 1e-300 n=%d: %d injectors", n, k)
			}
		}
		if (rate == 0 || rate == 1 || rate == 5e-324) && cs.draws != 0 {
			t.Errorf("rate %g consumed %d draws, want none", rate, cs.draws)
		}
	}
}

// countingSource wraps a rand.Source and counts the raw Int63 draws pulled
// through it, so a test can measure how many draws a sampler consumed.
type countingSource struct {
	src   rand.Source
	draws int
}

func (c *countingSource) Int63() int64 { c.draws++; return c.src.Int63() }
func (c *countingSource) Seed(s int64) { c.src.Seed(s) }

// TestNextInjectorDrawCount pins the sampler's cost: a cycle with k
// injections takes k+1 exponential draws (one raw draw each, bar the
// ziggurat's rare rejections), the same at n = 2^10 as at n = 2^40.
func TestNextInjectorDrawCount(t *testing.T) {
	const lambda, rounds = 2.0, 5000
	var buf []int64
	for _, n := range []int64{1 << 10, 1 << 20, 1 << 40} {
		cs := &countingSource{src: rand.NewSource(11)}
		rng := rand.New(cs)
		s := skipScale(lambda / float64(n))
		calls := 0
		for r := 0; r < rounds; r++ {
			calls += len(injectors(n, s, rng, buf)) + 1
		}
		if cs.draws < calls || float64(cs.draws) > 1.05*float64(calls)+10 {
			t.Errorf("n=%d: %d draws for %d sampler calls, want within 5%%", n, cs.draws, calls)
		}
		if per := float64(calls) / rounds; math.Abs(per-(lambda+1)) > 0.1 {
			t.Errorf("n=%d: %.2f calls per cycle, want ~%.0f", n, per, lambda+1)
		}
	}
}

// TestUniformDst64 checks the shifted-draw destination sampler: never the
// source, covers every other node, uniform to statistical tolerance.
func TestUniformDst64(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n = 8
	const src = 3
	counts := map[int64]int{}
	const rounds = 14000
	for i := 0; i < rounds; i++ {
		d := uniformDst64(src, n, rng)
		if d == src || d < 0 || d >= n {
			t.Fatalf("dst %d invalid for src %d, n %d", d, src, n)
		}
		counts[d]++
	}
	want := float64(rounds) / (n - 1)
	for d := int64(0); d < n; d++ {
		if d == src {
			continue
		}
		if c := counts[d]; math.Abs(float64(c)-want) > 0.1*want {
			t.Fatalf("dst %d drawn %d times, want ~%.0f", d, c, want)
		}
	}
}

// TestSparseLinksGet checks the arc-keyed link store on both adjacency
// paths — the topology's own Adjacent and the Neighbors fallback: a
// neighbor gets a FIFO, a non-neighbor an error, a second get returns the
// same FIFO without allocating, and a reclaimed FIFO is reused.
func TestSparseLinksGet(t *testing.T) {
	imp, err := topo.NewImplicit(superip.HSN(2, superip.NucleusHypercube(3)).Super())
	if err != nil {
		t.Fatal(err)
	}
	for name, tp := range map[string]Topology{
		"implicit":     imp,
		"hypercube":    topo.HypercubeTopo{Dim: 6},
		"four-methods": fourMethods{imp},
	} {
		s := newSparseLinks(tp)
		if (s.adj == nil) != (name == "four-methods") {
			t.Errorf("%s: adjacency oracle picked up = %v", name, s.adj != nil)
		}
		const u = 5
		nbrs := tp.Neighbors(u, nil)
		v := nbrs[len(nbrs)-1]
		lk, err := s.get(u, v)
		if err != nil || lk.u != u || lk.v != v {
			t.Fatalf("%s: get(%d, %d) = %+v, %v", name, u, v, lk, err)
		}
		if _, err := s.get(u, u); err == nil {
			t.Errorf("%s: get(%d, %d) accepted a self-loop", name, u, u)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if again, err := s.get(u, v); err != nil || again != lk {
				t.Fatalf("%s: second get(%d, %d) = %p, %v; want %p", name, u, v, again, err, lk)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: get on an existing FIFO allocates %.1f times", name, allocs)
		}
		// An idle FIFO is reclaimed by advance and reused for the next arc.
		if err := s.advance(0, &engine{}); err != nil {
			t.Fatal(err)
		}
		if s.peek(u, v) != nil || len(s.free) != 1 {
			t.Fatalf("%s: idle FIFO not reclaimed (free list %d)", name, len(s.free))
		}
		if reused, err := s.get(u, nbrs[0]); err != nil || reused != lk {
			t.Errorf("%s: free FIFO not reused: %p, %v; want %p", name, reused, err, lk)
		}
	}
}

// TestElinkFIFO drives a link FIFO through growth, compaction and draining
// against a reference slice: packets leave in arrival order, the array stays
// within a constant factor of the longest queue, and a drained FIFO keeps
// its array.
func TestElinkFIFO(t *testing.T) {
	var lk elink
	var want []int64
	rng := rand.New(rand.NewSource(5))
	next, peak := int64(0), 0
	for step := 0; step < 20000; step++ {
		if len(want) == 0 || rng.Intn(100) < 55-len(want)/40 {
			lk.push(epacket{id: next})
			want = append(want, next)
			next++
		} else {
			if got := lk.pop().id; got != want[0] {
				t.Fatalf("step %d: popped %d, want %d", step, got, want[0])
			}
			want = want[1:]
		}
		if got := lk.pending(); len(got) != len(want) || (len(got) > 0 && got[0].id != want[0]) {
			t.Fatalf("step %d: %d pending from %v, want %d from %v", step, len(got), got[:min(1, len(got))], len(want), want[:min(1, len(want))])
		}
		peak = max(peak, len(want))
		if cap(lk.queue) > 4*peak {
			t.Fatalf("step %d: array of %d slots for at most %d packets", step, cap(lk.queue), peak)
		}
	}
	for len(want) > 0 {
		lk.pop()
		want = want[1:]
	}
	if cap(lk.queue) == 0 || len(lk.queue) != 0 || lk.head != 0 {
		t.Fatalf("drained FIFO: len %d cap %d head %d", len(lk.queue), cap(lk.queue), lk.head)
	}
}
