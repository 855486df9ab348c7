package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(12345), New(12345)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := New(12346)
	same := 0
	for i := 0; i < 100; i++ {
		if New(12345).Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Error("nearby seeds produce correlated streams")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(1)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestIntn(t *testing.T) {
	r := New(2)
	seen := make(map[int]int)
	for i := 0; i < 10000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v]++
	}
	for v := 0; v < 10; v++ {
		if seen[v] < 700 || seen[v] > 1300 {
			t.Errorf("Intn(10) value %d seen %d times in 10000", v, seen[v])
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestExpMean(t *testing.T) {
	r := New(3)
	sum := 0.0
	n := 100000
	for i := 0; i < n; i++ {
		sum += r.Exp(5.0)
	}
	mean := sum / float64(n)
	if math.Abs(mean-5.0) > 0.1 {
		t.Errorf("Exp mean = %v, want ~5", mean)
	}
	if r.Exp(0) != 0 || r.Exp(-1) != 0 {
		t.Error("non-positive mean must return 0")
	}
}

func TestNormMoments(t *testing.T) {
	r := New(4)
	n := 100000
	sum, sum2 := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := r.Norm(10, 3)
		sum += x
		sum2 += x * x
	}
	mean := sum / float64(n)
	std := math.Sqrt(sum2/float64(n) - mean*mean)
	if math.Abs(mean-10) > 0.1 {
		t.Errorf("Norm mean = %v", mean)
	}
	if math.Abs(std-3) > 0.1 {
		t.Errorf("Norm std = %v", std)
	}
}

func TestTruncNormBounds(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		x := r.TruncNorm(165.63, 91.38, 16, 1024)
		if x < 16 || x > 1024 {
			t.Fatalf("TruncNorm out of bounds: %v", x)
		}
	}
	// Degenerate bounds still terminate and clamp.
	x := r.TruncNorm(0, 1, 100, 101)
	if x < 100 || x > 101 {
		t.Fatalf("degenerate TruncNorm = %v", x)
	}
}

func TestForkIndependence(t *testing.T) {
	r := New(8)
	f1 := r.Fork()
	f2 := r.Fork()
	same := 0
	for i := 0; i < 100; i++ {
		if f1.Uint64() == f2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Error("forked streams correlated")
	}
}

func TestBool(t *testing.T) {
	r := New(9)
	n, hits := 100000, 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / float64(n)
	if math.Abs(frac-0.3) > 0.01 {
		t.Errorf("Bool(0.3) rate = %v", frac)
	}
}

// Below(Threshold(p)) must answer exactly as Bool(p) does for every draw:
// checked on the draws whose top 53 bits sit at and around the threshold,
// at the ends of the range, and on a stream of ordinary ones, with the
// low 11 bits (which both ignore) all clear and all set.
func TestThresholdMatchesFloatCompare(t *testing.T) {
	ps := []float64{0, 0x1p-53, 0.003, 0.004, 0.22, 0.5, math.Nextafter(1, 0), 1}
	r := New(77)
	for _, p := range ps {
		th := Threshold(p)
		var xs []uint64
		for _, d := range []int64{-2, -1, 0, 1, 2} {
			if x := int64(th) + d; x >= 0 && x < 1<<53 {
				xs = append(xs, uint64(x))
			}
		}
		xs = append(xs, 0, 1, 1<<53-2, 1<<53-1)
		for i := 0; i < 1000; i++ {
			xs = append(xs, r.Uint64()>>11)
		}
		for _, x := range xs {
			for _, low := range []uint64{0, 1<<11 - 1} {
				u := x<<11 | low
				want := float64(u>>11)/(1<<53) < p
				if got := u>>11 < th; got != want {
					t.Fatalf("p=%v (threshold %d): draw %#x gives %v, the float compare %v", p, th, u, got, want)
				}
			}
		}
	}
	if Threshold(-1) != 0 || Threshold(math.NaN()) != 0 || Threshold(2) != 1<<53 {
		t.Fatalf("out-of-range p: Threshold(-1)=%d Threshold(NaN)=%d Threshold(2)=%d",
			Threshold(-1), Threshold(math.NaN()), Threshold(2))
	}
	// Below consumes the draw Bool would, so the streams stay in step.
	a, b := New(5), New(5)
	th := Threshold(0.22)
	for i := 0; i < 10000; i++ {
		if a.Bool(0.22) != b.Below(th) {
			t.Fatalf("draw %d: Bool(0.22) and Below(Threshold(0.22)) disagree", i)
		}
	}
}

// A seeded value generator is the stream New starts, whatever it held.
func TestSeedRestartsTheStream(t *testing.T) {
	var r Rand
	r.Seed(1)
	r.Norm(0, 1) // leave a cached spare behind
	r.Seed(99)
	ref := New(99)
	for i := 0; i < 100; i++ {
		if r.Norm(0, 1) != ref.Norm(0, 1) {
			t.Fatalf("draw %d: Seed(99) differs from New(99)", i)
		}
	}
}
