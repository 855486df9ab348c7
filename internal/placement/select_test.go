package placement

import (
	"sort"
	"testing"
	"testing/quick"

	"oasis/internal/rng"
	"oasis/internal/units"
)

// The allocation-free strategies must make bit-identical decisions to
// the sorting implementations they replaced: same candidate set, same
// RNG stream → same pick, and the same number of RNG draws (a skipped
// or extra draw would silently shift every later planner decision).
// The reference implementations below are the pre-rewrite code,
// preserved verbatim as test oracles.

func refSortByFree(cands []Candidate) []Candidate {
	out := append([]Candidate(nil), cands...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Free != out[j].Free {
			return out[i].Free < out[j].Free
		}
		return out[i].ID < out[j].ID
	})
	return out
}

func refRandom(cands []Candidate, r *rng.Rand) int {
	out := append([]Candidate(nil), cands...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out[r.Intn(len(out))].ID
}

func refFirstFit(cands []Candidate) int {
	best := cands[0]
	for _, c := range cands[1:] {
		if c.ID < best.ID {
			best = c
		}
	}
	return best.ID
}

func refBestFit(cands []Candidate) int { return refSortByFree(cands)[0].ID }

func refWorstFit(cands []Candidate) int {
	s := refSortByFree(cands)
	return s[len(s)-1].ID
}

func refRandomBestK(K int, cands []Candidate, r *rng.Rand) int {
	k := K
	if k <= 0 {
		k = 2
	}
	sorted := refSortByFree(cands)
	if k > len(sorted) {
		k = len(sorted)
	}
	return sorted[r.Intn(k)].ID
}

// genCands builds a candidate set with distinct IDs and adversarially
// clustered Free values (many exact ties, which is where a broken
// tie-break shows up).
func genCands(r *rng.Rand, n int) []Candidate {
	out := make([]Candidate, n)
	perm := make([]int, n*4)
	for i := range perm {
		perm[i] = i
	}
	for i := len(perm) - 1; i > 0; i-- { // Fisher-Yates
		j := r.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i := range out {
		out[i] = Candidate{
			ID:   perm[i],
			Free: units.Bytes(r.Intn(5)) * units.GiB, // dense ties
		}
		if r.Bool(0.3) {
			out[i].Free += units.Bytes(r.Intn(1 << 20))
		}
	}
	return out
}

// TestStrategiesMatchSortingReference drives every strategy and its
// oracle with independent-but-identical RNGs over random candidate
// sets, checking both the decision and the post-pick RNG position
// (probed with one extra draw).
func TestStrategiesMatchSortingReference(t *testing.T) {
	gen := rng.New(99)
	for trial := 0; trial < 2000; trial++ {
		n := 1 + gen.Intn(40)
		cs := genCands(gen, n)
		seed := gen.Uint64()
		type pair struct {
			name string
			got  func(c []Candidate, r *rng.Rand) int
			want func(c []Candidate, r *rng.Rand) int
		}
		k := 1 + int(seed%5)
		pairs := []pair{
			{"random", Random{}.Pick, refRandom},
			{"first-fit", FirstFit{}.Pick, func(c []Candidate, _ *rng.Rand) int { return refFirstFit(c) }},
			{"best-fit", BestFit{}.Pick, func(c []Candidate, _ *rng.Rand) int { return refBestFit(c) }},
			{"worst-fit", WorstFit{}.Pick, func(c []Candidate, _ *rng.Rand) int { return refWorstFit(c) }},
			{"random-best-k", RandomBestK{K: k}.Pick, func(c []Candidate, r *rng.Rand) int { return refRandomBestK(k, c, r) }},
			{"random-best-default", RandomBestK{}.Pick, func(c []Candidate, r *rng.Rand) int { return refRandomBestK(0, c, r) }},
		}
		for _, p := range pairs {
			rGot, rWant := rng.New(seed), rng.New(seed)
			// The new Pick may reorder in place; the oracle gets its own
			// copy so both see the same set.
			got := p.got(append([]Candidate(nil), cs...), rGot)
			want := p.want(append([]Candidate(nil), cs...), rWant)
			if got != want {
				t.Fatalf("trial %d: %s picked %d, sorting reference picked %d (cands %v)",
					trial, p.name, got, want, cs)
			}
			if a, b := rGot.Uint64(), rWant.Uint64(); a != b {
				t.Fatalf("trial %d: %s left the RNG at a different position (%#x vs %#x)",
					trial, p.name, a, b)
			}
		}
	}
}

// TestStrategiesOrderIndependent: shuffling the candidate slice must not
// change any strategy's decision — the incremental planner collects
// candidates in capacity-bucket order, not host order.
func TestStrategiesOrderIndependent(t *testing.T) {
	gen := rng.New(41)
	f := func(seed uint64, nRaw uint8) bool {
		n := 1 + int(nRaw)%30
		cs := genCands(gen, n)
		shuffled := append([]Candidate(nil), cs...)
		for i := len(shuffled) - 1; i > 0; i-- {
			j := gen.Intn(i + 1)
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		}
		for _, s := range []Strategy{Random{}, FirstFit{}, BestFit{}, WorstFit{}, RandomBestK{K: 3}} {
			a := s.Pick(append([]Candidate(nil), cs...), rng.New(seed))
			b := s.Pick(append([]Candidate(nil), shuffled...), rng.New(seed))
			if a != b {
				t.Logf("%s: order changed pick %d -> %d", s.Name(), a, b)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestPickZeroAlloc is the perf gate: no strategy may allocate on the
// hot path, at small or planner-scale candidate counts.
func TestPickZeroAlloc(t *testing.T) {
	r := rng.New(7)
	for _, n := range []int{1, 2, 17, 1024} {
		cs := genCands(r, n)
		for _, s := range []Strategy{Random{}, FirstFit{}, BestFit{}, WorstFit{}, RandomBestK{K: 2}} {
			s := s
			allocs := testing.AllocsPerRun(100, func() {
				s.Pick(cs, r)
			})
			if allocs != 0 {
				t.Errorf("%s allocates %.1f times per Pick at n=%d", s.Name(), allocs, n)
			}
		}
	}
}

// TestSelectKthAgainstSort pins the quickselect itself: for every rank
// of random slices it must return exactly the k-th element of the
// sorted order.
func TestSelectKthAgainstSort(t *testing.T) {
	gen := rng.New(13)
	for trial := 0; trial < 500; trial++ {
		n := 1 + gen.Intn(25)
		cs := genCands(gen, n)
		sorted := refSortByFree(cs)
		for k := 0; k < n; k++ {
			got := selectKth(append([]Candidate(nil), cs...), k, lessFree)
			if got != sorted[k] {
				t.Fatalf("selectKth(%d) = %+v, want %+v", k, got, sorted[k])
			}
		}
		byID := append([]Candidate(nil), cs...)
		sort.Slice(byID, func(i, j int) bool { return byID[i].ID < byID[j].ID })
		for k := 0; k < n; k++ {
			got := selectKth(append([]Candidate(nil), cs...), k, lessID)
			if got.ID != byID[k].ID {
				t.Fatalf("selectKth(%d, byID) = %+v, want %+v", k, got, byID[k])
			}
		}
	}
}
