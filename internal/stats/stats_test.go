package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Fatalf("summary %+v", s)
	}
	if d := s.Std - math.Sqrt(2.5); math.Abs(d) > 1e-12 {
		t.Fatalf("std %g", s.Std)
	}
}

func TestSummarizeEvenMedianAndSingle(t *testing.T) {
	if m := Summarize([]float64{1, 2, 3, 4}).Median; m != 2.5 {
		t.Fatalf("median %g", m)
	}
	s := Summarize([]float64{7})
	if s.Std != 0 || s.Mean != 7 || s.Median != 7 {
		t.Fatalf("single: %+v", s)
	}
}

func TestSummarizeEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Summarize(nil)
}

func TestSpeedups(t *testing.T) {
	sp := Speedups([]float64{10, 19, 36})
	if sp[0] != 1 || sp[1] != 1.9 || sp[2] != 3.6 {
		t.Fatalf("speedups %v", sp)
	}
	if Speedups(nil) != nil {
		t.Fatal("empty series")
	}
}

// Property: mean is within [min, max] and shifting a sample shifts the mean.
func TestQuickSummaryInvariants(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			xs[i] = math.Mod(v, 1e6)
		}
		s := Summarize(xs)
		if s.Mean < s.Min-1e-9 || s.Mean > s.Max+1e-9 {
			return false
		}
		shifted := make([]float64, len(xs))
		for i := range xs {
			shifted[i] = xs[i] + 10
		}
		s2 := Summarize(shifted)
		return math.Abs(s2.Mean-(s.Mean+10)) < 1e-6 && math.Abs(s2.Std-s.Std) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
