package netsim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/superip"
	"repro/internal/topo"
)

// TestInjectionCountExactRegime pins the exact-Bernoulli regime (n <= 2^16):
// the count is the sum of n per-node coin flips, so rate 0 and rate 1 are
// exact, the draw count is exactly n (the stream position after a call is
// independent of the outcomes), and the empirical mean tracks n*rate.
func TestInjectionCountExactRegime(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int64{1, 100, 1 << 16} {
		if k := injectionCount(n, 0, rng); k != 0 {
			t.Fatalf("n=%d rate=0: k=%d", n, k)
		}
		if k := injectionCount(n, 1, rng); k != n {
			t.Fatalf("n=%d rate=1: k=%d, want %d", n, k, n)
		}
	}
	// Stream alignment: two RNGs from the same seed must stay in lockstep
	// across a call regardless of rate, because every node always draws.
	a, b := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
	injectionCount(1000, 0.001, a)
	injectionCount(1000, 0.999, b)
	if x, y := a.Int63(), b.Int63(); x != y {
		t.Fatalf("exact regime consumed rate-dependent draw counts: %d vs %d", x, y)
	}
	// Empirical mean over repeated cycles.
	const n, rate, rounds = 4096, 0.01, 400
	sum := int64(0)
	for i := 0; i < rounds; i++ {
		sum += injectionCount(n, rate, rng)
	}
	mean := float64(sum) / rounds
	want := float64(n) * rate
	if math.Abs(mean-want) > 0.15*want {
		t.Fatalf("exact regime mean %.2f, want ~%.2f", mean, want)
	}
}

// TestInjectionCountPoissonRegime pins the small-lambda approximation branch
// (n > 2^16, n*rate < 30): Knuth's multiplicative sampler, nonnegative, with
// the right mean.
func TestInjectionCountPoissonRegime(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n = int64(1<<16) + 1 // smallest n on the approximate side of the boundary
	rate := 29.0 / float64(n)  // lambda just under the 30 cutoff
	const rounds = 2000
	sum := int64(0)
	for i := 0; i < rounds; i++ {
		k := injectionCount(n, rate, rng)
		if k < 0 {
			t.Fatalf("negative count %d", k)
		}
		sum += k
	}
	mean := float64(sum) / rounds
	if math.Abs(mean-29.0) > 0.1*29.0 {
		t.Fatalf("poisson regime mean %.2f, want ~29", mean)
	}
	if k := injectionCount(n, 0, rng); k != 0 {
		t.Fatalf("lambda=0 must return 0, got %d", k)
	}
}

// TestInjectionCountNormalRegime pins the large-lambda branch (n > 2^16,
// n*rate >= 30): normal approximation, clamped into [0, n].
func TestInjectionCountNormalRegime(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = int64(1 << 20)
	const rate = 0.001 // lambda = 1048.576
	lambda := float64(n) * rate
	const rounds = 2000
	sum := int64(0)
	for i := 0; i < rounds; i++ {
		k := injectionCount(n, rate, rng)
		if k < 0 || k > n {
			t.Fatalf("count %d outside [0,%d]", k, n)
		}
		sum += k
	}
	mean := float64(sum) / rounds
	if math.Abs(mean-lambda) > 0.05*lambda {
		t.Fatalf("normal regime mean %.2f, want ~%.2f", mean, lambda)
	}
	// The upper clamp: rate 1 makes the normal draw hug n; every sample
	// must stay within the population.
	for i := 0; i < 50; i++ {
		if k := injectionCount(n, 1, rng); k > n {
			t.Fatalf("clamp failed: %d > %d", k, n)
		}
	}
}

// countingSource wraps a rand.Source and counts the raw Int63 draws pulled
// through it — one per Float64, so it measures exactly how many per-node
// draws a sampler consumed.
type countingSource struct {
	src   rand.Source
	draws int
}

func (c *countingSource) Int63() int64 { c.draws++; return c.src.Int63() }
func (c *countingSource) Seed(s int64) { c.src.Seed(s) }

// TestInjectionCountRegimeBoundary checks the exact/approximate switch at
// n = 2^16: at the boundary the exact sampler runs (one draw per node), one
// node beyond it the aggregate samplers run (O(lambda) or O(1) draws).
func TestInjectionCountRegimeBoundary(t *testing.T) {
	drawsUsed := func(n int64, rate float64) int {
		cs := &countingSource{src: rand.NewSource(42)}
		injectionCount(n, rate, rand.New(cs))
		return cs.draws
	}
	if got := drawsUsed(1<<16, 0.0001); got != 1<<16 {
		t.Fatalf("n=2^16 used %d draws, want %d (exact regime)", got, 1<<16)
	}
	if got := drawsUsed(1<<16+1, 0.0001); got >= 1<<10 {
		t.Fatalf("n=2^16+1 used %d draws, want O(lambda) (approximate regime)", got)
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
