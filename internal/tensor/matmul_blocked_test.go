package tensor

import (
	"fmt"
	"testing"
)

// matmulOracle is the reference: textbook triple loop in float64.
func matmulOracle(a, b []float32, m, k, n int) []float32 {
	out := make([]float32, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc float64
			for t := 0; t < k; t++ {
				acc += float64(a[i*k+t]) * float64(b[t*n+j])
			}
			out[i*n+j] = float32(acc)
		}
	}
	return out
}

// TestMatMulBlockedMatchesNaive exercises the packed/blocked kernel (k·n
// above the mmSmallKN crossover) including every remainder path: odd row
// counts (single-row tail), k not a multiple of the 4-wide unroll or of
// mmKC, and n not a multiple of mmNC.
func TestMatMulBlockedMatchesNaive(t *testing.T) {
	cases := []struct{ m, k, n int }{
		{33, 150, 500},            // odd m, k/n remainders everywhere
		{2, mmKC + 3, mmNC*2 + 5}, // panel remainders in both k and n
		{7, 130, 520},             // k just past one mmKC panel
		{64, 256, 512},            // exact multiples
	}
	for _, c := range cases {
		c := c
		t.Run(fmt.Sprintf("%dx%dx%d", c.m, c.k, c.n), func(t *testing.T) {
			if c.k*c.n <= mmSmallKN {
				t.Fatalf("case below crossover: k*n = %d", c.k*c.n)
			}
			rng := NewRNG(int64(c.m + c.k + c.n))
			a := rng.Uniform(-1, 1, c.m, c.k)
			b := rng.Uniform(-1, 1, c.k, c.n)
			want := matmulOracle(a.Data(), b.Data(), c.m, c.k, c.n)
			for _, width := range []int{1, 4} {
				p := NewPool(width)
				got := MatMul(p, a, b)
				var maxd float64
				for i, w := range want {
					d := float64(got.Data()[i]) - float64(w)
					if d < 0 {
						d = -d
					}
					if d > maxd {
						maxd = d
					}
				}
				if maxd > 1e-3 {
					t.Fatalf("width %d: blocked kernel differs from naive by %g", width, maxd)
				}
				p.Close()
			}
		})
	}
}

// TestMatMulStreamingZeroSkip keeps the small-operand path (k·n up to
// mmSmallKN: b transposed into scratch, then gemmNT) honest: results with
// ReLU-style zeros in a must match the oracle.
func TestMatMulStreamingZeroSkip(t *testing.T) {
	rng := NewRNG(99)
	a := rng.Uniform(-1, 1, 5, 12)
	for i := 0; i < 12; i += 2 {
		a.Data()[i] = 0
	}
	b := rng.Uniform(-1, 1, 12, 9)
	want := matmulOracle(a.Data(), b.Data(), 5, 12, 9)
	got := MatMul(Serial, a, b)
	for i, w := range want {
		d := float64(got.Data()[i]) - float64(w)
		if d > 1e-4 || d < -1e-4 {
			t.Fatalf("small-operand path differs at %d: %g vs %g", i, got.Data()[i], w)
		}
	}
}

// TestGemmNTMatchesOracle checks the microkernel against a float64 oracle
// on every combination of small and tile-unaligned sizes, into a zeroed
// output (the plain product) and into one holding values (accumulation),
// with a row stride wider than n: the padding columns must come back
// untouched.
func TestGemmNTMatchesOracle(t *testing.T) {
	sizes := []int{1, 2, 3, 4, 5, 7, 16, 33}
	rng := NewRNG(7)
	for _, m := range sizes {
		for _, n := range sizes {
			for _, k := range sizes {
				a := rng.Uniform(-1, 1, m*k).Data()
				b := rng.Uniform(-1, 1, n*k).Data()
				ldc := n + 3
				for _, acc := range []bool{false, true} {
					c := make([]float32, m*ldc)
					if acc {
						c = rng.Uniform(-1, 1, m*ldc).Data()
					}
					orig := append([]float32(nil), c...)
					gemmNT(c, ldc, a, b, m, n, k)
					for i := 0; i < m; i++ {
						for j := 0; j < ldc; j++ {
							got, want := float64(c[i*ldc+j]), float64(orig[i*ldc+j])
							if j < n {
								for x := 0; x < k; x++ {
									want += float64(a[i*k+x]) * float64(b[j*k+x])
								}
							}
							if d := got - want; d > 1e-5*float64(k+1) || d < -1e-5*float64(k+1) {
								t.Fatalf("m=%d n=%d k=%d acc=%v: c[%d,%d] = %g, want %g", m, n, k, acc, i, j, got, want)
							}
						}
					}
				}
			}
		}
	}
}
