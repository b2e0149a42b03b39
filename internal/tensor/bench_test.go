package tensor

import (
	"fmt"
	"testing"
)

// Kernel micro-benchmarks: the per-op costs the paper's intra-op threading
// discussion is about. Run with -bench=. to see thread scaling of the Go
// kernels themselves.

// benchPools sweeps a fixed 1/2/4/8 thread ladder so the recorded scaling
// curve is comparable across machines (runtime.NumCPU() made the top point
// machine-dependent). On hosts with fewer cores the upper points measure
// oversubscription — see EXPERIMENTS.md on reading those.
func benchPools(b *testing.B, fn func(b *testing.B, p *Pool)) {
	for _, n := range []int{1, 2, 4, 8} {
		n := n
		b.Run(fmt.Sprintf("threads=%d", n), func(b *testing.B) {
			p := NewPool(n)
			defer p.Close()
			fn(b, p)
		})
	}
}

func BenchmarkMatMul256(b *testing.B) {
	rng := NewRNG(1)
	x := rng.Uniform(-1, 1, 256, 256)
	y := rng.Uniform(-1, 1, 256, 256)
	benchPools(b, func(b *testing.B, p *Pool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			MatMul(p, x, y)
		}
		flops := 2.0 * 256 * 256 * 256
		b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
	})
}

// BenchmarkMatMul512 exercises the packed/blocked path (k·n well above the
// mmSmallKN crossover) — the acceptance benchmark for the cache-blocked
// kernel. allocs/op stays at the output tensor only: pack panels come from
// the scratch arena.
func BenchmarkMatMul512(b *testing.B) {
	rng := NewRNG(1)
	x := rng.Uniform(-1, 1, 512, 512)
	y := rng.Uniform(-1, 1, 512, 512)
	benchPools(b, func(b *testing.B, p *Pool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			MatMul(p, x, y)
		}
		flops := 2.0 * 512 * 512 * 512
		b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
	})
}

func BenchmarkConv2D(b *testing.B) {
	rng := NewRNG(2)
	x := rng.Uniform(-1, 1, 4, 32, 28, 28)
	k := rng.Uniform(-1, 1, 64, 32, 3, 3)
	spec := ConvSpec{KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	benchPools(b, func(b *testing.B, p *Pool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Conv2D(p, x, k, spec)
		}
		flops := float64(ConvFLOPs(4, 32, 64, 28, 28, 3, 3))
		b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
	})
}

func BenchmarkConv2DBackward(b *testing.B) {
	rng := NewRNG(3)
	x := rng.Uniform(-1, 1, 4, 32, 14, 14)
	k := rng.Uniform(-1, 1, 64, 32, 3, 3)
	spec := ConvSpec{KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	dy := rng.Uniform(-1, 1, 4, 64, 14, 14)
	benchPools(b, func(b *testing.B, p *Pool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Conv2DBackward(p, x, k, dy, spec)
		}
	})
}

func BenchmarkBatchNorm(b *testing.B) {
	rng := NewRNG(4)
	x := rng.Uniform(-1, 1, 8, 64, 28, 28)
	gamma := Ones(64)
	beta := New(64)
	benchPools(b, func(b *testing.B, p *Pool) {
		for i := 0; i < b.N; i++ {
			BatchNorm2D(p, x, gamma, beta, 1e-5)
		}
		bytes := float64(4 * x.Len() * 2)
		b.ReportMetric(bytes*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
	})
}

func BenchmarkReLU(b *testing.B) {
	rng := NewRNG(5)
	x := rng.Uniform(-1, 1, 1<<20)
	benchPools(b, func(b *testing.B, p *Pool) {
		for i := 0; i < b.N; i++ {
			ReLU(p, x)
		}
	})
}

func BenchmarkMaxPool(b *testing.B) {
	rng := NewRNG(6)
	x := rng.Uniform(-1, 1, 8, 64, 28, 28)
	spec := PoolSpec{KH: 2, KW: 2, StrideH: 2, StrideW: 2}
	benchPools(b, func(b *testing.B, p *Pool) {
		for i := 0; i < b.N; i++ {
			MaxPool2D(p, x, spec)
		}
	})
}

func BenchmarkSoftmaxCrossEntropy(b *testing.B) {
	rng := NewRNG(7)
	logits := rng.Uniform(-2, 2, 128, 1000)
	labels := make([]int, 128)
	for i := range labels {
		labels[i] = rng.Intn(1000)
	}
	p := NewPool(4)
	defer p.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CrossEntropyLoss(p, logits, labels)
	}
}

func BenchmarkPoolRunOverhead(b *testing.B) {
	p := NewPool(4)
	defer p.Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Run(1<<16, 4096, func(s, e int) {})
	}
}

func BenchmarkConv1x1FastPath(b *testing.B) {
	rng := NewRNG(8)
	x := rng.Uniform(-1, 1, 4, 256, 14, 14)
	k := rng.Uniform(-1, 1, 64, 256, 1, 1)
	spec := ConvSpec{KH: 1, KW: 1, StrideH: 1, StrideW: 1}
	p := NewPool(2)
	defer p.Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Conv2D(p, x, k, spec)
	}
	flops := float64(ConvFLOPs(4, 256, 64, 14, 14, 1, 1))
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// BenchmarkConv2DShapes times Conv2D and Conv2DBackward on one thread at
// batch 4 for the convolution shapes the measured workloads and the paper's
// ResNets run: TinyCNN's three 3x3 convs at the benchmarks' 16x16 input, a
// ResNet-style 3x3 conv at 64 channels on 8x8, and a 1x1 bottleneck
// expansion. Backward counts two forward FLOPs (dW and dX). Outputs and
// scratch recycle through an arena, as they do under the graph executor.
func BenchmarkConv2DShapes(b *testing.B) {
	pad1 := ConvSpec{KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	pointwise := ConvSpec{KH: 1, KW: 1, StrideH: 1, StrideW: 1}
	shapes := []struct {
		name     string
		c, hw, f int
		spec     ConvSpec
	}{
		{"tinycnn1", 3, 16, 16, pad1},
		{"tinycnn2", 16, 8, 32, pad1},
		{"tinycnn3", 32, 4, 64, pad1},
		{"resnet3x3", 64, 8, 64, pad1},
		{"resnet1x1", 64, 8, 256, pointwise},
	}
	const n = 4
	for _, s := range shapes {
		rng := NewRNG(9)
		x := rng.Uniform(-1, 1, n, s.c, s.hw, s.hw)
		k := rng.Uniform(-1, 1, s.f, s.c, s.spec.KH, s.spec.KW)
		oh, ow := s.spec.OutSize(s.hw, s.hw)
		dy := rng.Uniform(-1, 1, n, s.f, oh, ow)
		flops := float64(ConvFLOPs(n, s.c, s.f, oh, ow, s.spec.KH, s.spec.KW))
		arena := NewArena()
		p := Serial.WithArena(arena)
		b.Run(s.name+"/fwd", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				arena.Put(Conv2D(p, x, k, s.spec))
			}
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
		b.Run(s.name+"/bwd", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dx, dk := Conv2DBackward(p, x, k, dy, s.spec)
				arena.Put(dx)
				arena.Put(dk)
			}
			b.ReportMetric(2*flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}
