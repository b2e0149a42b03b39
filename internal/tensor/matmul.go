package tensor

import "fmt"

// Which kernel serves which product:
//
//   - gemmNT, the register-tiled microkernel (c = a·bᵀ with both operands
//     contiguous along the reduction axis, 2×4 tiles of eight independent
//     accumulators): MatMulTB (Dense's dx = dy·Wᵀ); MatMul while B is small
//     (k·n ≤ mmSmallKN: B is transposed into scratch first, which covers
//     the pointwise convolutions of that size); the Conv2D forward (the
//     kernel times im2col rows laid out one patch per output pixel); and
//     both GEMMs of Conv2DBackward (dW = dy·colsᵀ, and dX's dcols = kᵀ·dy
//     with kᵀ and dyᵀ copied into scratch).
//   - matmulBlocked, B packed into [mmKC x mmNC] panels: MatMul once B
//     outgrows mmSmallKN, including pointwise convolutions of that size.
//   - matmulTARange (MatMulTA, Dense's dW = xᵀ·dy) is a rank-1 update loop,
//     not yet tiled.
//
// gemmNT runs near the scalar limit of the core, two arithmetic
// instructions a cycle (Go emits no SIMD): a single-accumulator dot product
// is bound by the add latency instead, and an axpy by a load and a store of
// the output per multiply-add. matmulBlocked stays for large NN products,
// where the NT form needs a full copy of B and loses. Measured on the
// 2-vCPU Xeon ledger host, single thread, three runs each, transpose
// included:
//
//	512³ NN             blocked 3.7-3.9 GFLOP/s   bᵀ + gemmNT 3.3-3.8 GFLOP/s
//	4×2048×2048 NN      blocked 2.6-3.0 GFLOP/s   bᵀ + gemmNT 0.5 GFLOP/s
//	64×288×16 NN        i-k-j axpy 1.8-2.9 GFLOP/s bᵀ + gemmNT 3.2-3.5 GFLOP/s
//
// The 4×2048×2048 product is Dense's forward in the wide-FC workload: its
// 16 MB weight transpose costs more than the product.
//
// The blocked kernel packs B into [mmKC x mmNC] panels (128 KiB, sized to
// sit in L2 across many output rows) and runs a 2-row × 4-k
// register-blocked inner loop on the packed panel. At 512³ on a 2.1 GHz
// Xeon, mmKC=128/mmNC=256 beat the neighboring {64,256}×{128,512} tilings
// by 3-8%, and the blocked kernel ran 1.68× the seed's streaming i-k-j
// kernel (4.4 → 7.4 GFLOP/s), which read all of B once per output row and
// lost ~1.7× once B spilled (k·n > ~64K floats ≈ 256 KiB).
const (
	mmKC = 128 // k-panel depth
	mmNC = 256 // j-panel width; pack buffer is mmKC*mmNC floats
	// mmSmallKN: up to this B footprint (floats) MatMul transposes B and
	// runs gemmNT — packing overhead outweighs the locality win.
	mmSmallKN = 64 * 1024
	// mmRowGrain is the minimum output rows per parallel chunk of the
	// blocked kernel. Each chunk repacks every B panel (~k·n copies) no
	// matter how few rows it covers, so the grain must be tile-proportional,
	// not a fixed handful of rows: at 32 rows the repack is under ~2% of the
	// chunk's 2·rows·k·n FLOPs, where the old grain of 4 rows let
	// over-decomposition drive repack overhead past 10% — the other
	// thread-scaling wall.
	mmRowGrain = 32
)

// MatMul returns a @ b for a [m, k] and b [k, n], parallelized over rows of
// the output: small B through gemmNT, large B through the packed,
// cache-blocked kernel (see the note above).
func MatMul(p *Pool, a, b *Tensor) *Tensor {
	if a.Dims() != 2 || b.Dims() != 2 {
		panic("tensor: MatMul requires 2-D operands")
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch %v x %v", a.shape, b.shape))
	}
	out := p.alloc(m, n)
	matmulInto(p, out.data, a.data, b.data, m, k, n)
	return out
}

// MatMulTA returns aᵀ @ b for a [k, m] and b [k, n].
func MatMulTA(p *Pool, a, b *Tensor) *Tensor {
	k, m := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTA inner dimension mismatch %v x %v", a.shape, b.shape))
	}
	// out[i,j] = sum_t a[t,i] * b[t,j]. Parallelize over output rows i,
	// accumulating rank-1 updates row-wise for locality.
	out := p.alloc(m, n)
	ad, bd, od := a.data, b.data, out.data
	if p.size == 1 {
		matmulTARange(od, ad, bd, 0, m, m, k, n)
		return out
	}
	p.Run(m, 8, func(s, e int) { matmulTARange(od, ad, bd, s, e, m, k, n) })
	return out
}

func matmulTARange(od, ad, bd []float32, s, e, m, k, n int) {
	for t := 0; t < k; t++ {
		brow := bd[t*n : (t+1)*n]
		for i := s; i < e; i++ {
			av := ad[t*m+i]
			if av == 0 {
				continue
			}
			orow := od[i*n : (i+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// MatMulTB returns a @ bᵀ for a [m, k] and b [n, k].
func MatMulTB(p *Pool, a, b *Tensor) *Tensor {
	m, k := a.shape[0], a.shape[1]
	n, k2 := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTB inner dimension mismatch %v x %v", a.shape, b.shape))
	}
	out := p.alloc(m, n)
	ad, bd, od := a.data, b.data, out.data
	if p.size == 1 {
		gemmNT(od, n, ad, bd, m, n, k)
		return out
	}
	// Split the output columns: each chunk reads only its own rows of b,
	// the large operand of Dense's dx = dy·Wᵀ, so b is read once in total.
	p.Run(n, 16, func(s, e int) { gemmNT(od[s:], n, ad, bd[s*k:], m, e-s, k) })
	return out
}

// matmulInto computes out += a @ b (row-major, out [m,n], a [m,k], b [k,n]).
// The output region must be pre-zeroed (fresh and arena tensors always are).
func matmulInto(p *Pool, out, a, b []float32, m, k, n int) {
	if k*n <= mmSmallKN {
		// bᵀ is a small copy at this size, and it puts both operands of
		// the microkernel contiguous along k.
		bT := p.scratch(n * k)
		transpose(bT, b, k, n)
		if p.size == 1 {
			gemmNT(out, n, a, bT, m, n, k)
		} else {
			p.Run(m, 4, func(s, e int) { gemmNT(out[s*n:], n, a[s*k:], bT, e-s, n, k) })
		}
		p.putScratch(bT)
		return
	}
	if p.size == 1 {
		pack := p.scratch(mmKC * mmNC)
		matmulBlocked(out, a, b, 0, m, k, n, pack)
		p.putScratch(pack)
		return
	}
	p.Run(m, mmRowGrain, func(s, e int) {
		pack := p.scratch(mmKC * mmNC)
		matmulBlocked(out, a, b, s, e, k, n, pack)
		p.putScratch(pack)
	})
}

// transpose writes the [cols, rows] transpose of src [rows, cols] to dst.
func transpose(dst, src []float32, rows, cols int) {
	for i := 0; i < rows; i++ {
		for j, v := range src[i*cols : (i+1)*cols] {
			dst[j*rows+i] = v
		}
	}
}

// gemmNT is the register-tiled microkernel: c[i*ldc+j] += Σ_t a[i*k+t]·b[j*k+t]
// for i < m, j < n. Both operands are row-major and contiguous along the
// reduction axis; callers that want the plain product pass a zeroed c. Each
// 2×4 tile of c lives in eight independent accumulators for the whole
// reduction, so each inner-loop step does six loads and eight independent
// multiply-adds per step instead of waiting on one accumulator's add
// latency; every inner-loop slice is resliced to len(b0) so the compiler
// drops the bounds checks. Each sum is taken in ascending t and added to c
// once, so results do not depend on the tiling or on how a caller splits m
// or n across a pool. Quads of b rows are the outer loop and stay in L1
// while the a rows stream past them.
func gemmNT(c []float32, ldc int, a, b []float32, m, n, k int) {
	j := 0
	for ; j+4 <= n; j += 4 {
		b0 := b[j*k : j*k+k]
		b1 := b[(j+1)*k : (j+2)*k][:len(b0)]
		b2 := b[(j+2)*k : (j+3)*k][:len(b0)]
		b3 := b[(j+3)*k : (j+4)*k][:len(b0)]
		i := 0
		for ; i+2 <= m; i += 2 {
			a0 := a[i*k : i*k+k][:len(b0)]
			a1 := a[(i+1)*k : (i+2)*k][:len(b0)]
			var c00, c01, c02, c03, c10, c11, c12, c13 float32
			for t, y := range b0 {
				x0, x1 := a0[t], a1[t]
				c00 += x0 * y
				c10 += x1 * y
				y = b1[t]
				c01 += x0 * y
				c11 += x1 * y
				y = b2[t]
				c02 += x0 * y
				c12 += x1 * y
				y = b3[t]
				c03 += x0 * y
				c13 += x1 * y
			}
			r0 := c[i*ldc+j : i*ldc+j+4]
			r1 := c[(i+1)*ldc+j : (i+1)*ldc+j+4]
			r0[0] += c00
			r0[1] += c01
			r0[2] += c02
			r0[3] += c03
			r1[0] += c10
			r1[1] += c11
			r1[2] += c12
			r1[3] += c13
		}
		if i < m {
			// Odd m: a 1×4 tile for the last row.
			a0 := a[i*k : i*k+k][:len(b0)]
			var c0, c1, c2, c3 float32
			for t, y0 := range b0 {
				x := a0[t]
				c0 += x * y0
				c1 += x * b1[t]
				c2 += x * b2[t]
				c3 += x * b3[t]
			}
			r := c[i*ldc+j : i*ldc+j+4]
			r[0] += c0
			r[1] += c1
			r[2] += c2
			r[3] += c3
		}
	}
	// n mod 4 columns: 4×1 tiles down the column, then single outputs.
	for ; j < n; j++ {
		bj := b[j*k : j*k+k]
		i := 0
		for ; i+4 <= m; i += 4 {
			a0 := a[i*k : i*k+k][:len(bj)]
			a1 := a[(i+1)*k : (i+2)*k][:len(bj)]
			a2 := a[(i+2)*k : (i+3)*k][:len(bj)]
			a3 := a[(i+3)*k : (i+4)*k][:len(bj)]
			var c0, c1, c2, c3 float32
			for t, y := range bj {
				c0 += a0[t] * y
				c1 += a1[t] * y
				c2 += a2[t] * y
				c3 += a3[t] * y
			}
			c[i*ldc+j] += c0
			c[(i+1)*ldc+j] += c1
			c[(i+2)*ldc+j] += c2
			c[(i+3)*ldc+j] += c3
		}
		for ; i < m; i++ {
			ai := a[i*k : i*k+k][:len(bj)]
			var s float32
			for t, y := range bj {
				s += ai[t] * y
			}
			c[i*ldc+j] += s
		}
	}
}

// matmulBlocked computes output rows [s, e) of out += a @ b with B packed
// into [klen x jlen] panels and a 2-row × 4-k register-blocked inner loop:
// each pass over a packed panel row reuses four B values across two output
// rows, quadrupling the arithmetic per loop iteration of a plain i-k-j
// loop while the panel stays L2-resident across all rows of the chunk.
func matmulBlocked(out, a, b []float32, s, e, k, n int, pack []float32) {
	for jj := 0; jj < n; jj += mmNC {
		jlen := n - jj
		if jlen > mmNC {
			jlen = mmNC
		}
		for kk := 0; kk < k; kk += mmKC {
			klen := k - kk
			if klen > mmKC {
				klen = mmKC
			}
			for t := 0; t < klen; t++ {
				copy(pack[t*jlen:(t+1)*jlen], b[(kk+t)*n+jj:(kk+t)*n+jj+jlen])
			}
			i := s
			for ; i+2 <= e; i += 2 {
				ar0 := a[i*k+kk : i*k+kk+klen]
				ar1 := a[(i+1)*k+kk : (i+1)*k+kk+klen]
				or0 := out[i*n+jj : i*n+jj+jlen]
				or1 := out[(i+1)*n+jj : (i+1)*n+jj+jlen]
				t := 0
				for ; t+4 <= klen; t += 4 {
					a00, a01, a02, a03 := ar0[t], ar0[t+1], ar0[t+2], ar0[t+3]
					a10, a11, a12, a13 := ar1[t], ar1[t+1], ar1[t+2], ar1[t+3]
					b0 := pack[t*jlen : (t+1)*jlen]
					b1 := pack[(t+1)*jlen : (t+2)*jlen]
					b2 := pack[(t+2)*jlen : (t+3)*jlen]
					b3 := pack[(t+3)*jlen : (t+4)*jlen]
					for j := range b0 {
						bv0, bv1, bv2, bv3 := b0[j], b1[j], b2[j], b3[j]
						or0[j] += a00*bv0 + a01*bv1 + a02*bv2 + a03*bv3
						or1[j] += a10*bv0 + a11*bv1 + a12*bv2 + a13*bv3
					}
				}
				for ; t < klen; t++ {
					a0v, a1v := ar0[t], ar1[t]
					brow := pack[t*jlen : (t+1)*jlen]
					for j, bv := range brow {
						or0[j] += a0v * bv
						or1[j] += a1v * bv
					}
				}
			}
			for ; i < e; i++ {
				arow := a[i*k+kk : i*k+kk+klen]
				orow := out[i*n+jj : i*n+jj+jlen]
				for t, av := range arow {
					if av == 0 {
						continue
					}
					brow := pack[t*jlen : (t+1)*jlen]
					for j, bv := range brow {
						orow[j] += av * bv
					}
				}
			}
		}
	}
}

// AddBiasRows adds bias (length n) to every row of x ([m, n]) in place.
func AddBiasRows(p *Pool, x, bias *Tensor) {
	m, n := x.shape[0], x.shape[1]
	if bias.Len() != n {
		panic(fmt.Sprintf("tensor: AddBiasRows bias length %d != cols %d", bias.Len(), n))
	}
	xd, bd := x.data, bias.data
	if p.size == 1 {
		addBiasRowsRange(xd, bd, 0, m, n)
		return
	}
	p.Run(m, 16, func(s, e int) { addBiasRowsRange(xd, bd, s, e, n) })
}

func addBiasRowsRange(xd, bd []float32, s, e, n int) {
	for i := s; i < e; i++ {
		row := xd[i*n : (i+1)*n]
		for j := range row {
			row[j] += bd[j]
		}
	}
}

// SumRows returns the column-wise sum of x ([m, n]) as a length-n tensor.
// It is the bias gradient for AddBiasRows.
func SumRows(p *Pool, x *Tensor) *Tensor {
	m, n := x.shape[0], x.shape[1]
	out := p.alloc(n)
	xd, od := x.data, out.data
	if p.size == 1 {
		sumRowsRange(od, xd, 0, n, m, n)
		return out
	}
	// Parallelize over columns to avoid write contention.
	p.Run(n, 256, func(s, e int) { sumRowsRange(od, xd, s, e, m, n) })
	return out
}

func sumRowsRange(od, xd []float32, s, e, m, n int) {
	for i := 0; i < m; i++ {
		row := xd[i*n : (i+1)*n]
		for j := s; j < e; j++ {
			od[j] += row[j]
		}
	}
}
