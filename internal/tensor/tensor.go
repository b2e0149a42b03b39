// Package tensor implements a dense, row-major float32 tensor library with
// parallel compute kernels. It is the compute substrate of dnnperf: the role
// that Intel MKL-DNN plays underneath Intel-optimized TensorFlow in the
// reproduced paper is played here by hand-written Go kernels that are
// parallelized over an intra-op worker pool (see Pool).
//
// All tensors are contiguous in row-major (C) order. Shapes use the NCHW
// convention for image data: [batch, channels, height, width].
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense, contiguous, row-major float32 array with a shape.
// The zero value is an empty scalar-less tensor; use the constructors.
type Tensor struct {
	shape []int
	data  []float32
}

// New returns a zero-filled tensor with the given shape.
// It panics if any dimension is negative.
func New(shape ...int) *Tensor {
	n := checkShape(shape)
	return &Tensor{shape: append([]int(nil), shape...), data: make([]float32, n)}
}

// FromSlice wraps data in a tensor of the given shape. The data is used
// directly (not copied); len(data) must equal the shape's element count.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: FromSlice data length %d does not match shape %v (%d elems)", len(data), shape, n))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: data}
}

// Full returns a tensor with every element set to v.
func Full(v float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Ones returns a tensor of ones.
func Ones(shape ...int) *Tensor { return Full(1, shape...) }

func checkShape(shape []int) int {
	n := 1
	for _, d := range shape {
		// The message avoids formatting the shape slice itself: %v would
		// leak the parameter and force callers' variadic shape arguments
		// onto the heap, costing the hot path one allocation per alloc.
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape", d))
		}
		n *= d
	}
	return n
}

// Shape returns the tensor's shape. The returned slice must not be mutated.
func (t *Tensor) Shape() []int { return t.shape }

// Dims returns the number of dimensions.
func (t *Tensor) Dims() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Data returns the backing slice in row-major order.
func (t *Tensor) Data() []float32 { return t.data }

// Bytes returns the in-memory size of the tensor payload in bytes.
func (t *Tensor) Bytes() int { return 4 * len(t.data) }

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float32 { return t.data[t.offset(idx)] }

// Set assigns the element at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) { t.data[t.offset(idx)] = v }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index %v has wrong rank for shape %v", idx, t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// CopyFrom copies src's data into t. Shapes must have equal element counts.
func (t *Tensor) CopyFrom(src *Tensor) {
	if len(t.data) != len(src.data) {
		panic(fmt.Sprintf("tensor: CopyFrom size mismatch %v vs %v", t.shape, src.shape))
	}
	copy(t.data, src.data)
}

// Reshape returns a view with a new shape sharing the same data.
// The element count must match. One dimension may be -1 (inferred).
func (t *Tensor) Reshape(shape ...int) *Tensor {
	shape = append([]int(nil), shape...)
	infer := -1
	n := 1
	for i, d := range shape {
		switch {
		case d == -1:
			if infer >= 0 {
				panic("tensor: Reshape with more than one -1 dimension")
			}
			infer = i
		case d < 0:
			panic(fmt.Sprintf("tensor: invalid dimension %d", d))
		default:
			n *= d
		}
	}
	if infer >= 0 {
		if n == 0 || len(t.data)%n != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dimension reshaping %v to %v", t.shape, shape))
		}
		shape[infer] = len(t.data) / n
		n = len(t.data)
	}
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: reshape %v to %v changes element count", t.shape, shape))
	}
	return &Tensor{shape: shape, data: t.data}
}

// Zero sets all elements to zero.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// Fill sets all elements to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}

// MaxAbsDiff returns the maximum absolute element-wise difference between
// t and u, which must have the same element count.
func (t *Tensor) MaxAbsDiff(u *Tensor) float64 {
	if len(t.data) != len(u.data) {
		panic("tensor: MaxAbsDiff size mismatch")
	}
	var m float64
	for i := range t.data {
		d := math.Abs(float64(t.data[i]) - float64(u.data[i]))
		if d > m {
			m = d
		}
	}
	return m
}

// String renders small tensors fully and large ones as a summary.
func (t *Tensor) String() string {
	if len(t.data) <= 16 {
		return fmt.Sprintf("Tensor%v%v", t.shape, t.data)
	}
	return fmt.Sprintf("Tensor%v[%d elems, first=%v...]", t.shape, len(t.data), t.data[:4])
}

// ShapeEq reports whether two shapes are identical.
func ShapeEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// NumElems returns the product of the dimensions of shape.
func NumElems(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}
