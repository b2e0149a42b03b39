package mpi

import (
	"encoding/binary"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// FramePool is a size-classed allocator for wire frame buffers — the
// transport-level extension of the PR-1 arena discipline. Collectives get a
// frame, serialize a segment into it, and hand ownership to the transport
// (Msg.Owned); receivers reduce straight out of the received frame and
// return it. Steady-state collective traffic therefore recycles a small
// working set of buffers instead of allocating per segment per step.
//
// Classes are powers of two from frameMinClass to frameMaxClass bytes;
// larger requests fall through to plain make and are never pooled. Every
// pooled buffer is a plain power-of-two []byte, so a frame that crosses
// rank boundaries in-process is released by whoever consumes it, and one
// that is never returned (a subscriber kept it) is ordinary garbage.
type FramePool struct {
	classes [frameClasses]sync.Pool

	gets   atomic.Int64 // frames handed out
	puts   atomic.Int64 // frames returned
	misses atomic.Int64 // gets that had to allocate (cold pool or oversize)
}

const (
	frameMinShift = 8  // 256 B — smallest pooled class
	frameMaxShift = 24 // 16 MiB — largest pooled class (covers fused gradients)
	frameClasses  = frameMaxShift - frameMinShift + 1
)

// sharedFramePool is the process's one frame pool: collectives get their
// frames from it, the TCP read loop receives into it, and whichever
// endpoint consumes an owned Msg releases the frame back to it.
var sharedFramePool FramePool

// frameClass returns the class index for a request of n bytes, or -1 if n
// is above the largest pooled class.
func frameClass(n int) int {
	if n <= 1<<frameMinShift {
		return 0
	}
	c := bits.Len(uint(n-1)) - frameMinShift
	if c >= frameClasses {
		return -1
	}
	return c
}

// Get returns a frame of length n (capacity rounded up to the size class).
// The contents are unspecified — callers overwrite the whole frame.
func (p *FramePool) Get(n int) []byte {
	p.gets.Add(1)
	c := frameClass(n)
	if c < 0 {
		p.misses.Add(1)
		return make([]byte, n)
	}
	if v := p.classes[c].Get(); v != nil {
		box := v.(*frameBuf)
		b := box.b
		box.b = nil
		frameBoxPool.Put(box) // recycle the box, or every Put allocates one
		return b[:n]
	}
	p.misses.Add(1)
	return make([]byte, n, 1<<(frameMinShift+c))
}

// frameBuf boxes a pooled buffer so Put does not allocate an interface
// header per call (the classic sync.Pool-of-slices pitfall).
type frameBuf struct{ b []byte }

var frameBoxPool = sync.Pool{New: func() any { return new(frameBuf) }}

// Put returns a frame obtained from Get. Oversize or
// odd-capacity buffers are dropped for the GC; Put(nil) is a no-op. The
// caller must not touch the buffer afterwards.
func (p *FramePool) Put(b []byte) {
	if b == nil {
		return
	}
	c := frameClass(cap(b))
	if c < 0 || cap(b) != 1<<(frameMinShift+c) {
		return // not one of ours; let the GC take it
	}
	p.puts.Add(1)
	box := frameBoxPool.Get().(*frameBuf)
	box.b = b[:cap(b)]
	p.classes[c].Put(box)
}

// FramePoolStats is a snapshot of a pool's traffic counters.
type FramePoolStats struct {
	Gets   int64 // frames handed out
	Puts   int64 // frames returned
	Misses int64 // gets served by a fresh allocation
}

// Stats returns the pool's cumulative counters. Gets-Misses is the number
// of allocation-free frame reuses.
func (p *FramePool) Stats() FramePoolStats {
	return FramePoolStats{Gets: p.gets.Load(), Puts: p.puts.Load(), Misses: p.misses.Load()}
}

// encodeFloats serializes src into dst (little-endian float32 bits).
// len(dst) must be 4*len(src).
func encodeFloats(dst []byte, src []float32) {
	for i, v := range src {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(v))
	}
}

// decodeFloats deserializes raw into dst without allocating.
// len(raw) must be 4*len(dst).
func decodeFloats(dst []float32, raw []byte) {
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}
}

// reduceFloatsFromBytes combines raw (encoded float32s) into dst element-
// wise with op — the in-place segmented reduce: no intermediate []float32
// is materialized between the wire and the caller's buffer.
func reduceFloatsFromBytes(dst []float32, raw []byte, op ReduceOp) {
	for i := range dst {
		v := math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		dst[i] = op(dst[i], v)
	}
}
