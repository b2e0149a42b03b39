// Package stats provides the measurement statistics the characterization
// study uses: summaries of repeated runs (the paper averages three runs per
// point) and speedup series.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary describes a sample of repeated measurements.
type Summary struct {
	N      int
	Mean   float64
	Std    float64 // sample standard deviation
	Min    float64
	Max    float64
	Median float64
}

// Summarize computes a Summary of xs. It panics on an empty sample.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		panic("stats: empty sample")
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	if len(xs) > 1 {
		s.Std = math.Sqrt(ss / float64(len(xs)-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		s.Median = sorted[mid]
	} else {
		s.Median = (sorted[mid-1] + sorted[mid]) / 2
	}
	return s
}

// String renders "mean ± std [min, max]".
func (s Summary) String() string {
	return fmt.Sprintf("%.4g ± %.2g [%.4g, %.4g] (n=%d)", s.Mean, s.Std, s.Min, s.Max, s.N)
}

// Speedups converts a throughput series (indexed like counts) into
// speedups relative to the first element.
func Speedups(throughput []float64) []float64 {
	if len(throughput) == 0 || throughput[0] == 0 {
		return nil
	}
	out := make([]float64, len(throughput))
	for i, v := range throughput {
		out[i] = v / throughput[0]
	}
	return out
}
