package tensor

import (
	"testing"
	"testing/quick"
)

// conv2DNaive is a direct reference convolution used to validate the
// im2col-based kernel.
func conv2DNaive(x, k *Tensor, spec ConvSpec) *Tensor {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	f := k.Dim(0)
	oh, ow := spec.OutSize(h, w)
	out := New(n, f, oh, ow)
	for img := 0; img < n; img++ {
		for of := 0; of < f; of++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var acc float64
					for ch := 0; ch < c; ch++ {
						for ky := 0; ky < spec.KH; ky++ {
							iy := oy*spec.StrideH + ky - spec.PadH
							if iy < 0 || iy >= h {
								continue
							}
							for kx := 0; kx < spec.KW; kx++ {
								ix := ox*spec.StrideW + kx - spec.PadW
								if ix < 0 || ix >= w {
									continue
								}
								acc += float64(x.At(img, ch, iy, ix)) * float64(k.At(of, ch, ky, kx))
							}
						}
					}
					out.Set(float32(acc), img, of, oy, ox)
				}
			}
		}
	}
	return out
}

// conv2DBackwardNaive is the reference backward pass: the forward's direct
// loops, each multiply-add routed to the kernel and input gradients, in
// float64.
func conv2DBackwardNaive(x, k, dy *Tensor, spec ConvSpec) (dx, dk *Tensor) {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	f := k.Dim(0)
	oh, ow := spec.OutSize(h, w)
	dx64 := make([]float64, x.Len())
	dk64 := make([]float64, k.Len())
	xd, kd, dyd := x.Data(), k.Data(), dy.Data()
	for img := 0; img < n; img++ {
		for of := 0; of < f; of++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					g := float64(dyd[((img*f+of)*oh+oy)*ow+ox])
					for ch := 0; ch < c; ch++ {
						for ky := 0; ky < spec.KH; ky++ {
							iy := oy*spec.StrideH + ky - spec.PadH
							if iy < 0 || iy >= h {
								continue
							}
							for kx := 0; kx < spec.KW; kx++ {
								ix := ox*spec.StrideW + kx - spec.PadW
								if ix < 0 || ix >= w {
									continue
								}
								xi := ((img*c+ch)*h+iy)*w + ix
								ki := ((of*c+ch)*spec.KH+ky)*spec.KW + kx
								dk64[ki] += g * float64(xd[xi])
								dx64[xi] += g * float64(kd[ki])
							}
						}
					}
				}
			}
		}
	}
	dx, dk = New(x.Shape()...), New(k.Shape()...)
	for i, v := range dx64 {
		dx.Data()[i] = float32(v)
	}
	for i, v := range dk64 {
		dk.Data()[i] = float32(v)
	}
	return dx, dk
}

// TestConv2DMatchesReferenceOddShapes runs forward, dW and dX against the
// direct loops on the shapes where a tiled kernel's edges show: one input
// channel, 3 or 5 filters (not a multiple of the tile), fewer than four
// output pixels, stride 2 without padding, non-square inputs and kernels.
// Each runs serially and on a 3-wide pool, which covers the batch-parallel
// paths (n ≥ 3) and the band-parallel forward (n < 3).
func TestConv2DMatchesReferenceOddShapes(t *testing.T) {
	s2p0 := func(kh, kw int) ConvSpec { return ConvSpec{KH: kh, KW: kw, StrideH: 2, StrideW: 2} }
	cases := []struct {
		name          string
		n, c, h, w, f int
		spec          ConvSpec
	}{
		{"c1-f3-s2p0", 3, 1, 7, 5, 3, s2p0(3, 3)},
		{"f5-3pix", 4, 2, 5, 9, 5, s2p0(5, 5)},
		{"1pix", 3, 3, 4, 4, 3, s2p0(3, 3)},
		{"c1-f5-rect-kernel", 5, 1, 9, 6, 5, ConvSpec{KH: 3, KW: 5, StrideH: 1, StrideW: 1, PadH: 1, PadW: 2}},
		{"pointwise", 4, 3, 6, 7, 5, ConvSpec{KH: 1, KW: 1, StrideH: 1, StrideW: 1}},
		{"bands", 2, 2, 24, 21, 3, ConvSpec{KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}},
		{"bands-s2", 1, 1, 13, 11, 5, s2p0(3, 3)},
	}
	pool := NewPool(3)
	defer pool.Close()
	for _, tc := range cases {
		rng := NewRNG(int64(tc.n*100 + tc.h))
		x := rng.Uniform(-1, 1, tc.n, tc.c, tc.h, tc.w)
		k := rng.Uniform(-1, 1, tc.f, tc.c, tc.spec.KH, tc.spec.KW)
		oh, ow := tc.spec.OutSize(tc.h, tc.w)
		dy := rng.Uniform(-1, 1, tc.n, tc.f, oh, ow)
		wantY := conv2DNaive(x, k, tc.spec)
		wantDX, wantDK := conv2DBackwardNaive(x, k, dy, tc.spec)
		for _, p := range []*Pool{Serial, pool} {
			y := Conv2D(p, x, k, tc.spec)
			dx, dk := Conv2DBackward(p, x, k, dy, tc.spec)
			for _, r := range []struct {
				what      string
				got, want *Tensor
			}{{"y", y, wantY}, {"dx", dx, wantDX}, {"dk", dk, wantDK}} {
				if d := r.got.MaxAbsDiff(r.want); d > 1e-4 {
					t.Errorf("%s pool=%d: %s differs from reference by %g", tc.name, p.Size(), r.what, d)
				}
			}
		}
	}
}

// TestConv2DBackwardPoolDeterministic: the pooled backward adds the
// per-chunk kernel-gradient partials in chunk order, so repeated calls
// give bit-identical dk whichever chunk finishes first.
func TestConv2DBackwardPoolDeterministic(t *testing.T) {
	rng := NewRNG(23)
	spec := ConvSpec{KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	x := rng.Uniform(-1, 1, 8, 4, 6, 6)
	k := rng.Uniform(-1, 1, 5, 4, 3, 3)
	dy := rng.Uniform(-1, 1, 8, 5, 6, 6)
	p := NewPool(4)
	defer p.Close()
	_, first := Conv2DBackward(p, x, k, dy, spec)
	for run := 0; run < 20; run++ {
		_, dk := Conv2DBackward(p, x, k, dy, spec)
		for i, v := range dk.Data() {
			if v != first.Data()[i] {
				t.Fatalf("run %d: dk[%d] = %v, first run %v", run, i, v, first.Data()[i])
			}
		}
	}
}

func TestConv2DMatchesNaive(t *testing.T) {
	rng := NewRNG(11)
	p := NewPool(4)
	defer p.Close()
	cases := []struct {
		n, c, h, w, f int
		spec          ConvSpec
	}{
		{1, 1, 5, 5, 1, ConvSpec{KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}},
		{2, 3, 8, 8, 4, ConvSpec{KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}},
		{2, 3, 9, 9, 5, ConvSpec{KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}},
		{1, 4, 7, 7, 6, ConvSpec{KH: 1, KW: 1, StrideH: 1, StrideW: 1}},
		{1, 2, 10, 10, 3, ConvSpec{KH: 5, KW: 5, StrideH: 2, StrideW: 2, PadH: 2, PadW: 2}},
		{1, 2, 11, 9, 3, ConvSpec{KH: 3, KW: 5, StrideH: 2, StrideW: 1, PadH: 0, PadW: 2}},
	}
	for i, tc := range cases {
		x := rng.Uniform(-1, 1, tc.n, tc.c, tc.h, tc.w)
		k := rng.Uniform(-1, 1, tc.f, tc.c, tc.spec.KH, tc.spec.KW)
		got := Conv2D(p, x, k, tc.spec)
		want := conv2DNaive(x, k, tc.spec)
		if d := got.MaxAbsDiff(want); d > 1e-3 {
			t.Fatalf("case %d: diff %g", i, d)
		}
	}
}

// numericGrad computes d loss / d tensor[i] by central differences, where
// loss = sum(conv * weight) for a fixed random weight.
func convLoss(p *Pool, x, k, wgt *Tensor, spec ConvSpec) float64 {
	out := Conv2D(p, x, k, spec)
	return Dot(out, wgt)
}

func TestConv2DBackwardNumeric(t *testing.T) {
	rng := NewRNG(5)
	p := Serial
	spec := ConvSpec{KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}
	x := rng.Uniform(-1, 1, 2, 3, 6, 6)
	k := rng.Uniform(-1, 1, 4, 3, 3, 3)
	oh, ow := spec.OutSize(6, 6)
	wgt := rng.Uniform(-1, 1, 2, 4, oh, ow)

	dx, dk := Conv2DBackward(p, x, k, wgt, spec)

	const eps = 1e-2
	checkGrad := func(name string, tens, analytic *Tensor, idxs []int) {
		for _, i := range idxs {
			orig := tens.Data()[i]
			tens.Data()[i] = orig + eps
			up := convLoss(p, x, k, wgt, spec)
			tens.Data()[i] = orig - eps
			down := convLoss(p, x, k, wgt, spec)
			tens.Data()[i] = orig
			num := (up - down) / (2 * eps)
			got := float64(analytic.Data()[i])
			if diff := num - got; diff > 0.05 || diff < -0.05 {
				t.Fatalf("%s[%d]: numeric %g vs analytic %g", name, i, num, got)
			}
		}
	}
	checkGrad("dx", x, dx, []int{0, 7, 35, 100, x.Len() - 1})
	checkGrad("dk", k, dk, []int{0, 5, 20, k.Len() - 1})
}

func TestConv2DBackwardParallelMatchesSerial(t *testing.T) {
	rng := NewRNG(21)
	spec := ConvSpec{KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	x := rng.Uniform(-1, 1, 4, 2, 6, 6)
	k := rng.Uniform(-1, 1, 3, 2, 3, 3)
	dy := rng.Uniform(-1, 1, 4, 3, 6, 6)
	dx1, dk1 := Conv2DBackward(Serial, x, k, dy, spec)
	p := NewPool(4)
	defer p.Close()
	dx2, dk2 := Conv2DBackward(p, x, k, dy, spec)
	if d := dx1.MaxAbsDiff(dx2); d > 1e-4 {
		t.Fatalf("dx parallel mismatch %g", d)
	}
	if d := dk1.MaxAbsDiff(dk2); d > 1e-4 {
		t.Fatalf("dk parallel mismatch %g", d)
	}
}

func TestConvFLOPs(t *testing.T) {
	// 1 image, 3->64 channels, 112x112 out, 7x7 kernel = ResNet stem.
	got := ConvFLOPs(1, 3, 64, 112, 112, 7, 7)
	want := int64(2) * 64 * 112 * 112 * 3 * 7 * 7
	if got != want {
		t.Fatalf("ConvFLOPs = %d, want %d", got, want)
	}
}

func TestMaxPoolForwardBackward(t *testing.T) {
	p := Serial
	x := FromSlice([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	spec := PoolSpec{KH: 2, KW: 2, StrideH: 2, StrideW: 2}
	y, arg := MaxPool2D(p, x, spec)
	want := []float32{6, 8, 14, 16}
	for i, v := range y.Data() {
		if v != want[i] {
			t.Fatalf("MaxPool[%d] = %v, want %v", i, v, want[i])
		}
	}
	dy := Ones(1, 1, 2, 2)
	dx := MaxPool2DBackward(p, x.Shape(), dy, arg, spec)
	if dx.At(0, 0, 1, 1) != 1 || dx.At(0, 0, 0, 0) != 0 {
		t.Fatalf("MaxPool backward wrong: %v", dx.Data())
	}
	if dx.Sum() != 4 {
		t.Fatalf("gradient mass = %v, want 4", dx.Sum())
	}
}

func TestAvgPoolForwardBackward(t *testing.T) {
	p := Serial
	x := Ones(1, 2, 4, 4)
	spec := PoolSpec{KH: 2, KW: 2, StrideH: 2, StrideW: 2}
	y := AvgPool2D(p, x, spec)
	for _, v := range y.Data() {
		if v != 1 {
			t.Fatalf("AvgPool of ones = %v", v)
		}
	}
	dy := Ones(1, 2, 2, 2)
	dx := AvgPool2DBackward(p, x.Shape(), dy, spec)
	// gradient mass must be conserved
	if d := dx.Sum() - dy.Sum(); d > 1e-5 || d < -1e-5 {
		t.Fatalf("AvgPool backward mass %v vs %v", dx.Sum(), dy.Sum())
	}
}

func TestGlobalAvgPoolRoundTrip(t *testing.T) {
	rng := NewRNG(2)
	p := Serial
	x := rng.Uniform(0, 1, 2, 3, 4, 4)
	y := GlobalAvgPool(p, x)
	if !ShapeEq(y.Shape(), []int{2, 3}) {
		t.Fatalf("shape %v", y.Shape())
	}
	// mean of plane 0
	var sum float64
	for i := 0; i < 16; i++ {
		sum += float64(x.Data()[i])
	}
	if d := float64(y.At(0, 0)) - sum/16; d > 1e-5 || d < -1e-5 {
		t.Fatalf("GlobalAvgPool wrong: %v vs %v", y.At(0, 0), sum/16)
	}
	dx := GlobalAvgPoolBackward(p, x.Shape(), Ones(2, 3))
	if d := dx.Sum() - 6; d > 1e-5 || d < -1e-5 {
		t.Fatalf("backward mass %v, want 6", dx.Sum())
	}
}

func TestBatchNormForwardStats(t *testing.T) {
	rng := NewRNG(8)
	p := Serial
	x := rng.Uniform(-3, 3, 4, 2, 5, 5)
	gamma := Ones(2)
	beta := New(2)
	y, _ := BatchNorm2D(p, x, gamma, beta, 1e-5)
	// each channel of y should have ~zero mean and ~unit variance
	n, c, hw := 4, 2, 25
	for ch := 0; ch < c; ch++ {
		var sum, ss float64
		for img := 0; img < n; img++ {
			base := (img*c + ch) * hw
			for i := 0; i < hw; i++ {
				v := float64(y.Data()[base+i])
				sum += v
				ss += v * v
			}
		}
		cnt := float64(n * hw)
		mean := sum / cnt
		variance := ss/cnt - mean*mean
		if mean > 1e-4 || mean < -1e-4 {
			t.Fatalf("channel %d mean %g", ch, mean)
		}
		if variance < 0.98 || variance > 1.02 {
			t.Fatalf("channel %d variance %g", ch, variance)
		}
	}
}

func TestBatchNormBackwardNumeric(t *testing.T) {
	rng := NewRNG(13)
	p := Serial
	x := rng.Uniform(-1, 1, 2, 2, 3, 3)
	gamma := rng.Uniform(0.5, 1.5, 2)
	beta := rng.Uniform(-0.5, 0.5, 2)
	wgt := rng.Uniform(-1, 1, 2, 2, 3, 3)
	loss := func() float64 {
		y, _ := BatchNorm2D(p, x, gamma, beta, 1e-5)
		return Dot(y, wgt)
	}
	_, st := BatchNorm2D(p, x, gamma, beta, 1e-5)
	dx, dgamma, dbeta := BatchNorm2DBackward(p, x, gamma, wgt, st)

	const eps = 1e-2
	check := func(name string, tens, analytic *Tensor, idxs []int) {
		for _, i := range idxs {
			orig := tens.Data()[i]
			tens.Data()[i] = orig + eps
			up := loss()
			tens.Data()[i] = orig - eps
			down := loss()
			tens.Data()[i] = orig
			num := (up - down) / (2 * eps)
			got := float64(analytic.Data()[i])
			if diff := num - got; diff > 0.08 || diff < -0.08 {
				t.Fatalf("%s[%d]: numeric %g vs analytic %g", name, i, num, got)
			}
		}
	}
	check("dx", x, dx, []int{0, 9, 17, 35})
	check("dgamma", gamma, dgamma, []int{0, 1})
	check("dbeta", beta, dbeta, []int{0, 1})
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := NewRNG(4)
	p := Serial
	x := rng.Uniform(-5, 5, 8, 10)
	y := Softmax(p, x)
	for i := 0; i < 8; i++ {
		var sum float64
		for j := 0; j < 10; j++ {
			v := float64(y.At(i, j))
			if v < 0 || v > 1 {
				t.Fatalf("softmax out of range: %v", v)
			}
			sum += v
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
}

func TestCrossEntropyGradNumeric(t *testing.T) {
	rng := NewRNG(17)
	p := Serial
	logits := rng.Uniform(-2, 2, 3, 4)
	labels := []int{1, 3, 0}
	_, grad := CrossEntropyLoss(p, logits, labels)
	const eps = 1e-2
	for _, i := range []int{0, 5, 11} {
		orig := logits.Data()[i]
		logits.Data()[i] = orig + eps
		up, _ := CrossEntropyLoss(p, logits, labels)
		logits.Data()[i] = orig - eps
		down, _ := CrossEntropyLoss(p, logits, labels)
		logits.Data()[i] = orig
		num := (up - down) / (2 * eps)
		got := float64(grad.Data()[i])
		if d := num - got; d > 1e-3 || d < -1e-3 {
			t.Fatalf("grad[%d]: numeric %g vs analytic %g", i, num, got)
		}
	}
}

// Property: for any input, max pooling output elements are each >= the avg
// pooling output at the same position when inputs are non-negative.
func TestQuickMaxGEAvgPool(t *testing.T) {
	p := Serial
	f := func(seed int64) bool {
		rng := NewRNG(seed)
		x := rng.Uniform(0, 1, 1, 2, 6, 6)
		spec := PoolSpec{KH: 2, KW: 2, StrideH: 2, StrideW: 2}
		mx, _ := MaxPool2D(p, x, spec)
		av := AvgPool2D(p, x, spec)
		for i := range mx.Data() {
			if mx.Data()[i] < av.Data()[i]-1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: convolving with an all-zero kernel yields all zeros and
// Conv2D is linear in the kernel.
func TestQuickConvLinearInKernel(t *testing.T) {
	p := Serial
	spec := ConvSpec{KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	f := func(seed int64) bool {
		rng := NewRNG(seed)
		x := rng.Uniform(-1, 1, 1, 2, 5, 5)
		k1 := rng.Uniform(-1, 1, 3, 2, 3, 3)
		k2 := rng.Uniform(-1, 1, 3, 2, 3, 3)
		lhs := Conv2D(p, x, Add(p, k1, k2), spec)
		rhs := Add(p, Conv2D(p, x, k1, spec), Conv2D(p, x, k2, spec))
		return lhs.MaxAbsDiff(rhs) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestConv1x1FastPathMatchesNaive(t *testing.T) {
	rng := NewRNG(31)
	p := NewPool(3)
	defer p.Close()
	spec := ConvSpec{KH: 1, KW: 1, StrideH: 1, StrideW: 1}
	x := rng.Uniform(-1, 1, 3, 8, 9, 7)
	k := rng.Uniform(-1, 1, 16, 8, 1, 1)
	got := Conv2D(p, x, k, spec)
	want := conv2DNaive(x, k, spec)
	if d := got.MaxAbsDiff(want); d > 1e-4 {
		t.Fatalf("1x1 fast path diff %g", d)
	}
	// Backward (im2col path) must also agree numerically for 1x1.
	dy := rng.Uniform(-1, 1, 3, 16, 9, 7)
	dx, dk := Conv2DBackward(p, x, k, dy, spec)
	if dx.Len() != x.Len() || dk.Len() != k.Len() {
		t.Fatal("gradient shapes")
	}
	loss := func() float64 { return Dot(Conv2D(Serial, x, k, spec), dy) }
	const eps = 1e-2
	for _, i := range []int{0, 33, x.Len() - 1} {
		orig := x.Data()[i]
		x.Data()[i] = orig + eps
		up := loss()
		x.Data()[i] = orig - eps
		down := loss()
		x.Data()[i] = orig
		num := (up - down) / (2 * eps)
		if d := num - float64(dx.Data()[i]); d > 0.05 || d < -0.05 {
			t.Fatalf("1x1 dx[%d]: %g vs %g", i, num, dx.Data()[i])
		}
	}
}

func TestIsPointwise(t *testing.T) {
	if !isPointwise(ConvSpec{KH: 1, KW: 1, StrideH: 1, StrideW: 1}) {
		t.Fatal("1x1/1 must be pointwise")
	}
	for _, s := range []ConvSpec{
		{KH: 3, KW: 3, StrideH: 1, StrideW: 1},
		{KH: 1, KW: 1, StrideH: 2, StrideW: 2},
		{KH: 1, KW: 1, StrideH: 1, StrideW: 1, PadH: 1},
	} {
		if isPointwise(s) {
			t.Fatalf("%+v must not be pointwise", s)
		}
	}
}

// TestConv2DSmallBatchMatchesSerial pins the within-image parallel paths
// taken when the batch is narrower than the pool (n < p.size): the band-
// parallel im2col path for general kernels and the row-parallel matmul path
// for pointwise kernels. Inputs are integer-valued so the parallel result
// must match the serial one bit-for-bit — both accumulate bands/tiles in the
// same ascending order, and any band-boundary slip would show up exactly.
func TestConv2DSmallBatchMatchesSerial(t *testing.T) {
	p := NewPool(8)
	defer p.Close()
	fillInt := func(tn *Tensor, seed int) {
		d := tn.Data()
		for i := range d {
			d[i] = float32((i*7+seed)%9 - 4)
		}
	}
	cases := []struct {
		name          string
		n, c, h, w, f int
		spec          ConvSpec
	}{
		// 30x30 output = 900 pixels: multiple convBandGrain bands per image.
		{"general-3x3", 2, 3, 30, 30, 8, ConvSpec{KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}},
		// Strided + asymmetric padding exercises im2col's band edge handling.
		{"general-5x3-stride2", 1, 2, 29, 31, 4, ConvSpec{KH: 5, KW: 3, StrideH: 2, StrideW: 2, PadH: 2, PadW: 0}},
		// Output smaller than one band: degenerate single-band case.
		{"general-tiny", 1, 2, 6, 6, 3, ConvSpec{KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}},
		// Pointwise small-batch: per-image row-parallel matmul path.
		{"pointwise", 2, 6, 17, 13, 10, ConvSpec{KH: 1, KW: 1, StrideH: 1, StrideW: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.n >= p.size {
				t.Fatalf("case does not hit the small-batch path: n=%d size=%d", tc.n, p.size)
			}
			x := New(tc.n, tc.c, tc.h, tc.w)
			k := New(tc.f, tc.c, tc.spec.KH, tc.spec.KW)
			fillInt(x, 1)
			fillInt(k, 3)
			got := Conv2D(p, x, k, tc.spec)
			want := Conv2D(Serial, x, k, tc.spec)
			for i, v := range got.Data() {
				if v != want.Data()[i] {
					t.Fatalf("elem %d: parallel %v serial %v", i, v, want.Data()[i])
				}
			}
		})
	}
}
