package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewShapeAndLen(t *testing.T) {
	x := New(2, 3, 4)
	if x.Len() != 24 {
		t.Fatalf("Len = %d, want 24", x.Len())
	}
	if x.Dims() != 3 || x.Dim(1) != 3 {
		t.Fatalf("bad dims: %v", x.Shape())
	}
	if x.Bytes() != 96 {
		t.Fatalf("Bytes = %d, want 96", x.Bytes())
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(2, 3)
	x.Set(7, 1, 2)
	if got := x.At(1, 2); got != 7 {
		t.Fatalf("At(1,2) = %v, want 7", got)
	}
	if got := x.Data()[5]; got != 7 {
		t.Fatalf("flat offset wrong: %v", got)
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range index")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestFromSliceValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched data length")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestReshapeInference(t *testing.T) {
	x := New(2, 6)
	y := x.Reshape(3, -1)
	if !ShapeEq(y.Shape(), []int{3, 4}) {
		t.Fatalf("reshape got %v", y.Shape())
	}
	y.Set(9, 0, 0)
	if x.At(0, 0) != 9 {
		t.Fatal("reshape must share data")
	}
}

func TestReshapeRejectsBadCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 3).Reshape(4, 2)
}

func TestCloneIndependent(t *testing.T) {
	x := Full(3, 4)
	y := x.Clone()
	y.Set(1, 0)
	if x.At(0) != 3 {
		t.Fatal("Clone must not share data")
	}
}

func TestAddSubMul(t *testing.T) {
	p := Serial
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float32{10, 20, 30, 40}, 2, 2)
	if got := Add(p, a, b).Data()[3]; got != 44 {
		t.Fatalf("Add = %v", got)
	}
	if got := Sub(p, b, a).Data()[0]; got != 9 {
		t.Fatalf("Sub = %v", got)
	}
	if got := Mul(p, a, b).Data()[2]; got != 90 {
		t.Fatalf("Mul = %v", got)
	}
}

func TestAXPYAndScale(t *testing.T) {
	p := Serial
	x := Ones(3)
	AXPY(p, x, 2, FromSlice([]float32{1, 2, 3}, 3))
	want := []float32{3, 5, 7}
	for i, v := range x.Data() {
		if v != want[i] {
			t.Fatalf("AXPY[%d] = %v, want %v", i, v, want[i])
		}
	}
	y := Scale(p, 0.5, x)
	if y.Data()[2] != 3.5 {
		t.Fatalf("Scale = %v", y.Data())
	}
}

func TestReLUAndGrad(t *testing.T) {
	p := Serial
	x := FromSlice([]float32{-1, 0, 2}, 3)
	y := ReLU(p, x)
	if y.Data()[0] != 0 || y.Data()[2] != 2 {
		t.Fatalf("ReLU = %v", y.Data())
	}
	g := ReLUGrad(p, x, FromSlice([]float32{5, 5, 5}, 3))
	if g.Data()[0] != 0 || g.Data()[1] != 0 || g.Data()[2] != 5 {
		t.Fatalf("ReLUGrad = %v", g.Data())
	}
}

func TestMatMulSmall(t *testing.T) {
	p := Serial
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(p, a, b)
	want := []float32{58, 64, 139, 154}
	for i, v := range c.Data() {
		if v != want[i] {
			t.Fatalf("MatMul[%d] = %v, want %v", i, v, want[i])
		}
	}
}

// matmulNaive is an independent reference implementation.
func matmulNaive(a, b *Tensor) *Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc float64
			for t := 0; t < k; t++ {
				acc += float64(a.At(i, t)) * float64(b.At(t, j))
			}
			out.Set(float32(acc), i, j)
		}
	}
	return out
}

func TestMatMulMatchesNaiveParallel(t *testing.T) {
	rng := NewRNG(42)
	p := NewPool(4)
	defer p.Close()
	for _, dims := range [][3]int{{1, 1, 1}, {5, 7, 3}, {17, 9, 23}, {64, 32, 16}} {
		a := rng.Uniform(-1, 1, dims[0], dims[1])
		b := rng.Uniform(-1, 1, dims[1], dims[2])
		got := MatMul(p, a, b)
		want := matmulNaive(a, b)
		if d := got.MaxAbsDiff(want); d > 1e-4 {
			t.Fatalf("dims %v: diff %g", dims, d)
		}
	}
}

func TestMatMulTransposedVariants(t *testing.T) {
	rng := NewRNG(7)
	p := NewPool(3)
	defer p.Close()
	a := rng.Uniform(-1, 1, 6, 5) // [k=6, m=5]
	b := rng.Uniform(-1, 1, 6, 4) // [k=6, n=4]
	got := MatMulTA(p, a, b)
	// reference: transpose a then naive multiply
	at := New(5, 6)
	for i := 0; i < 6; i++ {
		for j := 0; j < 5; j++ {
			at.Set(a.At(i, j), j, i)
		}
	}
	if d := got.MaxAbsDiff(matmulNaive(at, b)); d > 1e-4 {
		t.Fatalf("MatMulTA diff %g", d)
	}

	// The second shape has enough columns for MatMulTB to split them
	// across the pool.
	for _, dims := range [][3]int{{5, 6, 4}, {7, 37, 50}} {
		m, k, n := dims[0], dims[1], dims[2]
		c := rng.Uniform(-1, 1, m, k)  // [m, k]
		dm := rng.Uniform(-1, 1, n, k) // [n, k]
		got2 := MatMulTB(p, c, dm)
		dt := New(k, n)
		for i := 0; i < n; i++ {
			for j := 0; j < k; j++ {
				dt.Set(dm.At(i, j), j, i)
			}
		}
		if d := got2.MaxAbsDiff(matmulNaive(c, dt)); d > 1e-4 {
			t.Fatalf("MatMulTB %v diff %g", dims, d)
		}
	}
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(Serial, New(2, 3), New(4, 2))
}

func TestAddBiasAndSumRows(t *testing.T) {
	p := Serial
	x := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	AddBiasRows(p, x, FromSlice([]float32{10, 20}, 2))
	if x.At(1, 1) != 24 {
		t.Fatalf("AddBiasRows = %v", x.Data())
	}
	s := SumRows(p, x)
	if s.At(0) != 11+13 || s.At(1) != 22+24 {
		t.Fatalf("SumRows = %v", s.Data())
	}
}

func TestConcatAxis1(t *testing.T) {
	p := Serial
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float32{5, 6}, 2, 1)
	c := Concat(p, 1, a, b)
	if !ShapeEq(c.Shape(), []int{2, 3}) {
		t.Fatalf("shape %v", c.Shape())
	}
	want := []float32{1, 2, 5, 3, 4, 6}
	for i, v := range c.Data() {
		if v != want[i] {
			t.Fatalf("Concat[%d] = %v, want %v", i, v, want[i])
		}
	}
}

func TestConcatSplitRoundTrip(t *testing.T) {
	rng := NewRNG(3)
	p := NewPool(2)
	defer p.Close()
	a := rng.Uniform(0, 1, 2, 3, 2, 2)
	b := rng.Uniform(0, 1, 2, 5, 2, 2)
	c := rng.Uniform(0, 1, 2, 1, 2, 2)
	cat := Concat(p, 1, a, b, c)
	parts := SplitGrad(p, cat, 1, []int{3, 5, 1})
	for i, orig := range []*Tensor{a, b, c} {
		if d := parts[i].MaxAbsDiff(orig); d != 0 {
			t.Fatalf("part %d differs by %g", i, d)
		}
	}
}

func TestSumMeanDotNorm(t *testing.T) {
	x := FromSlice([]float32{3, 4}, 2)
	if x.Sum() != 7 || x.Mean() != 3.5 {
		t.Fatalf("Sum/Mean wrong")
	}
	if Dot(x, x) != 25 {
		t.Fatalf("Dot = %v", Dot(x, x))
	}
	if math.Abs(x.L2Norm()-5) > 1e-9 {
		t.Fatalf("L2Norm = %v", x.L2Norm())
	}
}

func TestArgMaxRow(t *testing.T) {
	x := FromSlice([]float32{0, 5, 2, 9, 1, 3}, 2, 3)
	if x.ArgMaxRow(0) != 1 || x.ArgMaxRow(1) != 0 {
		t.Fatal("ArgMaxRow wrong")
	}
}

func TestPoolRunCoversRange(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	n := 10007
	hits := make([]int32, n)
	p.Run(n, 64, func(s, e int) {
		for i := s; i < e; i++ {
			hits[i]++
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d hit %d times", i, h)
		}
	}
}

func TestPoolSize1Inline(t *testing.T) {
	p := NewPool(0) // clamps to 1
	if p.Size() != 1 {
		t.Fatalf("Size = %d", p.Size())
	}
	ran := false
	p.Run(5, 1, func(s, e int) {
		if s != 0 || e != 5 {
			t.Fatalf("inline run got [%d,%d)", s, e)
		}
		ran = true
	})
	if !ran {
		t.Fatal("fn not run")
	}
}

// Property: Add is commutative and Scale distributes over Add.
func TestQuickAddAlgebra(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	f := func(seed int64, n uint8) bool {
		size := int(n%32) + 1
		rng := NewRNG(seed)
		a := rng.Uniform(-10, 10, size)
		b := rng.Uniform(-10, 10, size)
		ab := Add(p, a, b)
		ba := Add(p, b, a)
		if ab.MaxAbsDiff(ba) != 0 {
			return false
		}
		lhs := Scale(p, 2, ab)
		rhs := Add(p, Scale(p, 2, a), Scale(p, 2, b))
		return lhs.MaxAbsDiff(rhs) < 1e-4
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: (A·B)·C == A·(B·C) within float tolerance.
func TestQuickMatMulAssociative(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	f := func(seed int64, d1, d2, d3, d4 uint8) bool {
		m, k, n, q := int(d1%6)+1, int(d2%6)+1, int(d3%6)+1, int(d4%6)+1
		rng := NewRNG(seed)
		a := rng.Uniform(-1, 1, m, k)
		b := rng.Uniform(-1, 1, k, n)
		c := rng.Uniform(-1, 1, n, q)
		lhs := MatMul(p, MatMul(p, a, b), c)
		rhs := MatMul(p, a, MatMul(p, b, c))
		return lhs.MaxAbsDiff(rhs) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(99).Randn(1, 16)
	b := NewRNG(99).Randn(1, 16)
	if a.MaxAbsDiff(b) != 0 {
		t.Fatal("same seed must produce same tensor")
	}
}

func TestHeInitScale(t *testing.T) {
	x := NewRNG(1).HeInit(100, 10000)
	// stddev should be near sqrt(2/100) ≈ 0.1414
	var ss float64
	for _, v := range x.Data() {
		ss += float64(v) * float64(v)
	}
	sd := math.Sqrt(ss / float64(x.Len()))
	if sd < 0.12 || sd > 0.17 {
		t.Fatalf("He init stddev %v out of range", sd)
	}
}
