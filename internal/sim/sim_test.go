package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestCachelineHelpers(t *testing.T) {
	if LineOf(0) != 0 || LineOf(63) != 0 || LineOf(64) != 1 {
		t.Fatal("LineOf")
	}
	if LinesSpanned(0, 0) != 0 {
		t.Fatal("zero-length span")
	}
	if LinesSpanned(0, 64) != 1 || LinesSpanned(63, 2) != 2 || LinesSpanned(0, 65) != 2 {
		t.Fatal("LinesSpanned")
	}
	if AlignUp(0) != 0 || AlignUp(1) != 64 || AlignUp(64) != 64 || AlignUp(65) != 128 {
		t.Fatal("AlignUp")
	}
}

func TestClock(t *testing.T) {
	var c Clock
	c.Advance(100 * time.Nanosecond)
	c.Advance(-5) // negative ignored
	if c.Now() != 100 {
		t.Fatalf("Now: %d", c.Now())
	}
	c.AdvanceTo(50) // backwards ignored
	if c.Now() != 100 {
		t.Fatalf("AdvanceTo backwards: %d", c.Now())
	}
	c.AdvanceTo(250)
	if c.Now() != 250 {
		t.Fatalf("AdvanceTo: %d", c.Now())
	}
	c.Reset()
	if c.Now() != 0 {
		t.Fatal("Reset")
	}
}

func TestResourceQueueing(t *testing.T) {
	var r Resource
	// Two back-to-back uses from the same instant serialize.
	end1 := r.Use(0, 100)
	end2 := r.Use(0, 100)
	if end1 != 100 || end2 != 200 {
		t.Fatalf("serialize: %d %d", end1, end2)
	}
	// A late arrival starts at its own time if the server is idle.
	end3 := r.Use(1000, 50)
	if end3 != 1050 {
		t.Fatalf("idle start: %d", end3)
	}
	if r.Use(0, 0) != 0 {
		t.Fatal("zero duration")
	}
}

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give the same stream")
		}
	}
	if NewRand(0).Uint64() == 0 {
		t.Fatal("zero seed must be remapped")
	}
}

func TestRandRanges(t *testing.T) {
	r := NewRand(3)
	f := func(nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if v := r.UniformInt(5, 10); v < 5 || v > 10 {
			t.Fatalf("UniformInt out of range: %d", v)
		}
		if v := r.NURand(255, 1, 100, 33); v < 1 || v > 100 {
			t.Fatalf("NURand out of range: %d", v)
		}
		if v := r.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %f", v)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRand(11)
	const n = 1000
	counts := make([]int, n)
	for i := 0; i < 50000; i++ {
		v := r.Zipf(n, 0.8)
		if v < 0 || v >= n {
			t.Fatalf("Zipf out of range: %d", v)
		}
		counts[v]++
	}
	// The first decile must receive well over its uniform share.
	first := 0
	for i := 0; i < n/10; i++ {
		first += counts[i]
	}
	if float64(first)/50000 < 0.3 {
		t.Fatalf("Zipf not skewed: first decile %.2f", float64(first)/50000)
	}
}

func TestPerm(t *testing.T) {
	r := NewRand(5)
	out := make([]int, 20)
	r.Perm(out)
	seen := map[int]bool{}
	for _, v := range out {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("not a permutation: %v", out)
		}
		seen[v] = true
	}
}

func TestLastName(t *testing.T) {
	if LastName(0) != "BARBARBAR" {
		t.Fatalf("LastName(0) = %q", LastName(0))
	}
	if LastName(371) != "PRICALLYOUGHT" {
		t.Fatalf("LastName(371) = %q", LastName(371))
	}
}
