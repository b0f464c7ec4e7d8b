package stats

import (
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestRNGRanges(t *testing.T) {
	rng := NewRNG(1)
	for i := 0; i < 1000; i++ {
		if v := rng.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if f := rng.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	check := func(seed uint64) bool {
		rng := NewRNG(seed)
		n := 1 + rng.Intn(30)
		p := rng.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestZipfSkew(t *testing.T) {
	rng := NewRNG(3)
	z := NewZipf(rng, 100, 1.2)
	counts := make([]int, 100)
	for i := 0; i < 20000; i++ {
		counts[z.Next()]++
	}
	if counts[0] <= counts[50] {
		t.Errorf("rank 0 (%d) should dominate rank 50 (%d)", counts[0], counts[50])
	}
	// Head mass: top-10 ranks should hold a large share.
	head := 0
	for i := 0; i < 10; i++ {
		head += counts[i]
	}
	if head < 8000 {
		t.Errorf("head mass = %d/20000, want heavy skew", head)
	}
}

func TestBoolProbability(t *testing.T) {
	rng := NewRNG(5)
	hits := 0
	for i := 0; i < 10000; i++ {
		if rng.Bool(0.25) {
			hits++
		}
	}
	if hits < 2200 || hits > 2800 {
		t.Errorf("Bool(0.25) rate = %d/10000", hits)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := NewRNG(9)
	child := parent.Split()
	// The child stream must not simply mirror the parent.
	same := 0
	for i := 0; i < 20; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("split stream mirrors parent (%d/20 equal)", same)
	}
}
