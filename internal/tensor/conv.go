package tensor

import "fmt"

// ConvSpec describes a 2-D convolution: kernel size, stride and symmetric
// zero padding. Kernels are stored [outC, inC, KH, KW]; activations NCHW.
type ConvSpec struct {
	KH, KW  int
	StrideH int
	StrideW int
	PadH    int
	PadW    int
}

// OutSize returns the output spatial size for an input of h×w.
func (c ConvSpec) OutSize(h, w int) (oh, ow int) {
	oh = (h+2*c.PadH-c.KH)/c.StrideH + 1
	ow = (w+2*c.PadW-c.KW)/c.StrideW + 1
	return oh, ow
}

// convGeom is one convolution's shape: images [C,H,W] in, F filters,
// images [F,OH,OW] out.
type convGeom struct {
	spec               ConvSpec
	c, h, w, f, oh, ow int
}

// rows is the im2col row count, one row per kernel tap: C·KH·KW.
func (g convGeom) rows() int { return g.c * g.spec.KH * g.spec.KW }

// pixels is the output pixel count per filter, OH·OW.
func (g convGeom) pixels() int { return g.oh * g.ow }

// Conv2D computes a 2-D convolution of x [N,C,H,W] with kernel
// k [F,C,KH,KW]: each output pixel's receptive field is gathered into a
// row of an im2col matrix and the GEMM microkernel multiplies the kernel
// against those rows. The batch is split across the pool, or the output
// pixels of each image when the batch is narrower than the pool.
func Conv2D(p *Pool, x, k *Tensor, spec ConvSpec) *Tensor {
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	f, kc := k.shape[0], k.shape[1]
	if kc != c {
		panic(fmt.Sprintf("tensor: Conv2D channel mismatch input %d kernel %d", c, kc))
	}
	if k.shape[2] != spec.KH || k.shape[3] != spec.KW {
		panic("tensor: Conv2D kernel shape does not match spec")
	}
	oh, ow := spec.OutSize(h, w)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: Conv2D non-positive output %dx%d for input %dx%d", oh, ow, h, w))
	}
	out := p.alloc(n, f, oh, ow)

	if isPointwise(spec) {
		// 1x1 stride-1 convolution is a plain matmul per image — no im2col
		// buffer, the fast path MKL-DNN also takes for ResNet bottlenecks.
		if p.size == 1 {
			conv2dPointwiseImgs(out.data, k.data, x.data, 0, n, f, c, h*w)
			return out
		}
		if n < p.size {
			// Too few images to feed the pool batch-wise; parallelize each
			// image's matmul over its output rows instead.
			for img := 0; img < n; img++ {
				matmulInto(p, out.data[img*f*h*w:(img+1)*f*h*w], k.data,
					x.data[img*c*h*w:(img+1)*c*h*w], f, c, h*w)
			}
			return out
		}
		p.Run(n, 1, func(s, e int) {
			conv2dPointwiseImgs(out.data, k.data, x.data, s, e, f, c, h*w)
		})
		return out
	}

	g := convGeom{spec: spec, c: c, h: h, w: w, f: f, oh: oh, ow: ow}
	od, xd, kd := out.data, x.data, k.data
	if p.size == 1 {
		conv2dImgs(p, od, xd, kd, 0, n, g)
		return out
	}
	if n < p.size {
		// Batch parallelism runs out below the pool width (the paper's
		// small-batch inference/latency points). Go band-parallel inside
		// each image: split the output-pixel axis and let each band gather
		// and multiply only its own pixels. Bands are independent, so the
		// pool stays full.
		inLen, outLen := c*h*w, f*g.pixels()
		for img := 0; img < n; img++ {
			conv2dBands(p, od[img*outLen:(img+1)*outLen], xd[img*inLen:(img+1)*inLen], kd, g)
		}
		return out
	}
	p.Run(n, 1, func(s, e int) { conv2dImgs(p, od, xd, kd, s, e, g) })
	return out
}

// convBandGrain is the minimum output pixels per parallel band of the
// within-image Conv2D path: enough pixels that the band's GEMM amortizes
// its im2col gather.
const convBandGrain = 128

// conv2dImgs convolves images [s, e) one whole-image band at a time, with
// im2col scratch recycled through the arena: steady-state training steps
// allocate nothing here.
func conv2dImgs(p *Pool, od, xd, kd []float32, s, e int, g convGeom) {
	inLen, outLen := g.c*g.h*g.w, g.f*g.pixels()
	colsT := p.scratch(g.pixels() * g.rows())
	for img := s; img < e; img++ {
		conv2dBand(od[img*outLen:(img+1)*outLen], xd[img*inLen:(img+1)*inLen], kd, colsT, g, 0, g.pixels())
	}
	p.putScratch(colsT)
}

// conv2dBands computes one image's convolution with its output-pixel axis
// split across the pool.
func conv2dBands(p *Pool, od, img, kd []float32, g convGeom) {
	p.Run(g.pixels(), convBandGrain, func(cs, ce int) {
		colsT := p.scratch((ce - cs) * g.rows())
		conv2dBand(od, img, kd, colsT, g, cs, ce)
		p.putScratch(colsT)
	})
}

// conv2dBand computes output pixels [cs, ce) of one image: the band's
// receptive fields become the rows of colsT [ce-cs, C·KH·KW], and the
// microkernel writes out[:, cs:ce] = k [F, C·KH·KW] · colsTᵀ straight into
// the image's [F, OH·OW] output.
func conv2dBand(od, img, kd, colsT []float32, g convGeom, cs, ce int) {
	rows := g.rows()
	im2col(img, colsT, 1, rows, g, cs, ce)
	gemmNT(od[cs:], g.pixels(), kd, colsT, g.f, ce-cs, rows)
}

func conv2dPointwiseImgs(od, kd, xd []float32, s, e, f, c, hw int) {
	for img := s; img < e; img++ {
		matmulInto(Serial, od[img*f*hw:(img+1)*f*hw], kd, xd[img*c*hw:(img+1)*c*hw], f, c, hw)
	}
}

// isPointwise reports whether spec is a 1x1 stride-1 unpadded convolution.
func isPointwise(spec ConvSpec) bool {
	return spec.KH == 1 && spec.KW == 1 &&
		spec.StrideH == 1 && spec.StrideW == 1 &&
		spec.PadH == 0 && spec.PadW == 0
}

// Conv2DBackward computes the gradients of Conv2D with respect to the input
// and the kernel, given upstream gradient dy [N,F,OH,OW].
func Conv2DBackward(p *Pool, x, k, dy *Tensor, spec ConvSpec) (dx, dk *Tensor) {
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	f := k.shape[0]
	oh, ow := spec.OutSize(h, w)
	g := convGeom{spec: spec, c: c, h: h, w: w, f: f, oh: oh, ow: ow}
	rows := g.rows()

	dx = p.alloc(n, c, h, w)
	dk = p.alloc(k.shape...)
	// Local copies keep the parallel closure from capturing the named
	// results by reference (that would move dx and dk to the heap).
	dxd, dkd, dkLen := dx.data, dk.data, dk.Len()
	xd, dyd := x.data, dy.data
	// kᵀ [C·KH·KW, F], the input-gradient GEMM's left operand, once per call.
	kT := p.scratch(rows * f)
	transpose(kT, k.data, f, rows)

	// The batch is cut into at most one chunk per pool worker. Chunk 0
	// accumulates its kernel gradient straight into dk, every other chunk
	// into a private partial, and the partials are added in chunk order
	// after Run returns, so dk does not depend on which chunk finished
	// first.
	chunks := min(n, p.size)
	if chunks == 1 {
		conv2dBwdImgs(p, dxd, dkd, xd, kT, dyd, 0, n, g)
	} else {
		parts := p.scratch((chunks - 1) * dkLen)
		p.Run(chunks, 1, func(s, e int) {
			for ch := s; ch < e; ch++ {
				dst := dkd
				if ch > 0 {
					dst = parts[(ch-1)*dkLen : ch*dkLen]
				}
				conv2dBwdImgs(p, dxd, dst, xd, kT, dyd, ch*n/chunks, (ch+1)*n/chunks, g)
			}
		})
		for ch := 1; ch < chunks; ch++ {
			for i, v := range parts[(ch-1)*dkLen : ch*dkLen] {
				dkd[i] += v
			}
		}
		p.putScratch(parts)
	}
	p.putScratch(kT)
	return dx, dk
}

// conv2dBwdImgs processes images [s, e): dx is written per image (disjoint
// across chunks), while kernel gradients accumulate into dkDst — the real
// dk for the first chunk, a chunk-private partial otherwise.
func conv2dBwdImgs(p *Pool, dxd, dkDst, xd, kT, dyd []float32, s, e int, g convGeom) {
	rows, pix := g.rows(), g.pixels()
	inLen, outLen := g.c*g.h*g.w, g.f*pix
	cols := p.scratch(rows * pix)
	dcols := p.scratch(rows * pix)
	dyT := p.scratch(pix * g.f)
	for img := s; img < e; img++ {
		dyImg := dyd[img*outLen : (img+1)*outLen]
		im2col(xd[img*inLen:(img+1)*inLen], cols, pix, 1, g, 0, pix)
		// dk [F, rows] += dy [F, pix] · cols [rows, pix]ᵀ
		gemmNT(dkDst, rows, dyImg, cols, g.f, rows, pix)
		// dcols [rows, pix] = kᵀ [rows, F] · dyᵀ [pix, F]ᵀ
		transpose(dyT, dyImg, g.f, pix)
		clear(dcols)
		gemmNT(dcols, pix, kT, dyT, rows, pix, g.f)
		col2im(dcols, dxd[img*inLen:(img+1)*inLen], g)
	}
	p.putScratch(dyT)
	p.putScratch(dcols)
	p.putScratch(cols)
}

// im2col gathers the receptive fields of output pixels [cs, ce) of one
// image [C,H,W]: tap r = (ch·KH+kh)·KW+kw of pixel q lands at
// cols[r*rs + (q-cs)*ps], zero where the tap falls in the padding. rs =
// ce-cs, ps = 1 lays out the [C·KH·KW, pixels] matrix the kernel gradient
// reduces over; rs = 1, ps = C·KH·KW its transpose, one contiguous patch
// per pixel, which is what the forward reduces over. The padding tests are
// hoisted out of the pixel loop: one per output row, and per tap the span
// of output columns that lands inside the image.
func im2col(img, cols []float32, rs, ps int, g convGeom, cs, ce int) {
	spec := g.spec
	row := 0
	for ch := 0; ch < g.c; ch++ {
		plane := img[ch*g.h*g.w : (ch+1)*g.h*g.w]
		for kh := 0; kh < spec.KH; kh++ {
			for kw := 0; kw < spec.KW; kw++ {
				lo, hi := tapSpan(kw, spec.PadW, spec.StrideW, g.w, g.ow)
				d := row * rs
				for q := cs; q < ce; {
					oy, ox := q/g.ow, q%g.ow
					end := min(g.ow, ox+ce-q)
					q += end - ox
					iy := oy*spec.StrideH + kh - spec.PadH
					if iy < 0 || iy >= g.h {
						for ; ox < end; ox++ {
							cols[d] = 0
							d += ps
						}
						continue
					}
					src := plane[iy*g.w : (iy+1)*g.w]
					for ; ox < min(lo, end); ox++ {
						cols[d] = 0
						d += ps
					}
					ix := ox*spec.StrideW + kw - spec.PadW
					for ; ox < min(hi, end); ox++ {
						cols[d] = src[ix]
						d += ps
						ix += spec.StrideW
					}
					for ; ox < end; ox++ {
						cols[d] = 0
						d += ps
					}
				}
				row++
			}
		}
	}
}

// tapSpan returns the output columns [lo, hi) whose tap at kernel offset k
// lands inside an input of width n: 0 ≤ o·stride + k − pad < n, o < outN.
func tapSpan(k, pad, stride, n, outN int) (lo, hi int) {
	if pad > k {
		lo = (pad - k + stride - 1) / stride
	}
	if top := n - 1 + pad - k; top >= 0 {
		hi = min(top/stride+1, outN)
	}
	return min(lo, hi), hi
}

// col2im accumulates cols [C*KH*KW, OH*OW] back into an image gradient.
func col2im(cols, img []float32, g convGeom) {
	spec, pix := g.spec, g.pixels()
	row := 0
	for ch := 0; ch < g.c; ch++ {
		chOff := ch * g.h * g.w
		for kh := 0; kh < spec.KH; kh++ {
			for kw := 0; kw < spec.KW; kw++ {
				src := cols[row*pix : (row+1)*pix]
				i := 0
				for oy := 0; oy < g.oh; oy++ {
					iy := oy*spec.StrideH + kh - spec.PadH
					if iy < 0 || iy >= g.h {
						i += g.ow
						continue
					}
					rowOff := chOff + iy*g.w
					for ox := 0; ox < g.ow; ox++ {
						ix := ox*spec.StrideW + kw - spec.PadW
						if ix >= 0 && ix < g.w {
							img[rowOff+ix] += src[i]
						}
						i++
					}
				}
				row++
			}
		}
	}
}

// ConvFLOPs returns the multiply-add FLOP count (2 per MAC) of a forward
// convolution producing [n, f, oh, ow] from inC input channels.
func ConvFLOPs(n, inC, f, oh, ow, kh, kw int) int64 {
	return 2 * int64(n) * int64(f) * int64(oh) * int64(ow) * int64(inC) * int64(kh) * int64(kw)
}
