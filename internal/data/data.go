// Package data provides the synthetic input pipeline: deterministic,
// ImageNet-shaped image/label batches. The reproduced paper's benchmarks
// (tf_cnn_benchmarks and pytorch_synthetic_benchmark) also use synthetic
// data, so this substitution is exact in spirit.
//
// For functional training demos a learnable synthetic task is provided:
// images whose class determines a planted spatial pattern, so a real model
// can actually reduce loss on it.
package data

import (
	"fmt"

	"dnnperf/internal/tensor"
)

// Batch is one minibatch of images and labels.
type Batch struct {
	Images *tensor.Tensor // [N, C, H, W]
	Labels []int          // length N
}

// Synthetic generates deterministic random batches (pure throughput
// benchmarking, like the paper's synthetic benchmarks).
type Synthetic struct {
	Batch   int
	Chans   int
	Size    int
	Classes int
	rng     *tensor.RNG
}

// NewSynthetic returns a generator of [batch, chans, size, size] images.
func NewSynthetic(batch, chans, size, classes int, seed int64) (*Synthetic, error) {
	if batch < 1 || chans < 1 || size < 1 || classes < 2 {
		return nil, fmt.Errorf("data: invalid synthetic config %dx%dx%dx%d", batch, chans, size, classes)
	}
	return &Synthetic{Batch: batch, Chans: chans, Size: size, Classes: classes, rng: tensor.NewRNG(seed)}, nil
}

// Next produces the next batch.
func (s *Synthetic) Next() Batch {
	img := s.rng.Uniform(0, 1, s.Batch, s.Chans, s.Size, s.Size)
	labels := make([]int, s.Batch)
	for i := range labels {
		labels[i] = s.rng.Intn(s.Classes)
	}
	return Batch{Images: img, Labels: labels}
}

// Learnable generates batches with a planted signal: class k brightens a
// class-specific block of the image, so a CNN can learn to classify them.
type Learnable struct {
	Synthetic
	// Strength is the amplitude of the planted pattern (default 2.0).
	Strength float32
}

// NewLearnable returns a learnable-task generator.
func NewLearnable(batch, chans, size, classes int, seed int64) (*Learnable, error) {
	s, err := NewSynthetic(batch, chans, size, classes, seed)
	if err != nil {
		return nil, err
	}
	if size*size < classes {
		return nil, fmt.Errorf("data: image %dx%d too small for %d classes", size, size, classes)
	}
	return &Learnable{Synthetic: *s, Strength: 2.0}, nil
}

// Next produces the next learnable batch: background noise plus a planted
// bright block whose position encodes the label.
func (l *Learnable) Next() Batch {
	b := l.Synthetic.Next()
	plane := l.Size * l.Size
	blocks := plane / l.Classes
	px := b.Images.Data()
	for i, lbl := range b.Labels {
		// Brighten the lbl-th run of pixels in every channel: the run is
		// contiguous in the row-major [H, W] plane.
		for c := 0; c < l.Chans; c++ {
			start := (i*l.Chans+c)*plane + lbl*blocks
			run := px[start : start+blocks]
			for j := range run {
				run[j] += l.Strength
			}
		}
	}
	return b
}

// Shard deterministically re-seeds a generator config for one rank of a
// data-parallel job so each rank sees distinct data.
func Shard(seed int64, rank int) int64 { return seed*1000003 + int64(rank)*7919 }
