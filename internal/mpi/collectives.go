package mpi

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// joinSendErr attaches an already-completed concurrent send's failure to a
// recv failure, so the typed *PeerError survives whichever side saw the
// dead peer first. It never blocks: a still-running send is left to finish
// against its own write deadline.
func joinSendErr(recvErr error, sendErrCh <-chan error) error {
	select {
	case sendErr := <-sendErrCh:
		if sendErr != nil {
			return errors.Join(recvErr, sendErr)
		}
	default:
	}
	return recvErr
}

// ReduceOp combines two float32 values element-wise during reductions.
type ReduceOp func(a, b float32) float32

// Predefined reduction operators.
var (
	// OpSum adds elements (the operator Horovod uses for gradients).
	OpSum ReduceOp = func(a, b float32) float32 { return a + b }
	// OpMax keeps the maximum.
	OpMax ReduceOp = func(a, b float32) float32 {
		if a > b {
			return a
		}
		return b
	}
	// OpMin keeps the minimum.
	OpMin ReduceOp = func(a, b float32) float32 {
		if a < b {
			return a
		}
		return b
	}
)

// Barrier blocks until every rank has entered it (dissemination algorithm,
// O(log p) rounds).
func (c *Comm) Barrier() error {
	p, r := c.Size(), c.Rank()
	for k, round := 1, 0; k < p; k, round = k<<1, round+1 {
		to := (r + k) % p
		from := (r - k + p) % p
		tag := tagBarrier + uint32(round)
		errCh := make(chan error, 1)
		go func() { errCh <- c.send(to, tag, Msg{}) }()
		if _, err := c.ep.Recv(from, tag); err != nil {
			return fmt.Errorf("barrier round %d: %w", round, joinSendErr(err, errCh))
		}
		if err := <-errCh; err != nil {
			return fmt.Errorf("barrier round %d: %w", round, err)
		}
	}
	return nil
}

// Bcast broadcasts root's buf to all ranks using a binomial tree
// (O(log p) latency, the algorithm MPI libraries use for small payloads).
// All ranks must pass a buffer of identical length.
func (c *Comm) Bcast(buf []float32, root int) error {
	b, err := c.BcastBytes(floatsToBytes(buf), root)
	if err != nil {
		return err
	}
	f, err := bytesToFloats(b)
	if err != nil {
		return err
	}
	copy(buf, f)
	return nil
}

// BcastBytes broadcasts root's payload to all ranks and returns it.
// Non-root callers may pass nil.
func (c *Comm) BcastBytes(payload []byte, root int) ([]byte, error) {
	p, r := c.Size(), c.Rank()
	if root < 0 || root >= p {
		return nil, fmt.Errorf("bcast: root %d out of range", root)
	}
	if p == 1 {
		return payload, nil
	}
	// Standard MPICH binomial tree, rotated so the tree is rooted at 0:
	// ranks receive from (vr - lowbit) and forward to vr + mask for
	// descending power-of-two masks below their lowbit.
	vr := (r - root + p) % p
	mask := 1
	for mask < p {
		if vr&mask != 0 {
			parent := (vr - mask + root) % p
			b, err := c.ep.Recv(parent, tagBcast)
			if err != nil {
				return nil, fmt.Errorf("bcast recv: %w", err)
			}
			payload = b
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if vr+mask < p {
			child := (vr + mask + root) % p
			if err := c.send(child, tagBcast, Msg{Buf: payload}); err != nil {
				return nil, fmt.Errorf("bcast send: %w", err)
			}
		}
	}
	return payload, nil
}

// Allreduce reduces buf element-wise across all ranks with op, leaving the
// result in every rank's buf, using the communicator's configured
// algorithm (SetAllreduceAlg). The default, AlgAuto, follows MPI practice:
// recursive doubling for power-of-two jobs and small payloads, ring
// otherwise (bandwidth-optimal for large gradients). Use AllreduceWith to
// force an algorithm for a single call.
func (c *Comm) Allreduce(buf []float32, op ReduceOp) error {
	return c.AllreduceWith(c.alg, buf, op)
}

// DefaultSegmentBytes is the default pipelining segment for the ring
// allreduce: large enough to amortize per-frame overhead, small enough
// that a segment's reduce overlaps the next segment's transfer — the
// chunked large-message design of CUDA-Aware MPI collectives.
const DefaultSegmentBytes = 64 << 10

// segReq describes one pipelined segment send: floats [lo,hi) of the
// caller's buffer, serialized and shipped by the ring sender goroutine.
// lo < 0 is the end-of-operation sentinel.
type segReq struct {
	lo, hi int
	tag    uint32
}

// ringState is the per-communicator pipelined-ring scratch: the segment
// queue feeding the sender goroutine and its completion channel, allocated
// once and reused by every ring allreduce on this comm. Collectives are
// caller-serialized per communicator (MPI semantics), so no lock is needed.
type ringState struct {
	q    chan segReq
	done chan error
}

// ringQueueDepth bounds how far the sender pipeline can run ahead of the
// reducer; enqueues beyond it block, which is exactly the send-side flow
// control a pipelined ring wants.
const ringQueueDepth = 32

func (c *Comm) ring() *ringState {
	if c.rs == nil {
		c.rs = &ringState{q: make(chan segReq, ringQueueDepth), done: make(chan error, 1)}
	}
	return c.rs
}

// ringSender drains the segment queue: serialize each segment from buf
// into a pooled frame and hand it to the transport with ownership
// transfer. After the first failure remaining segments are discarded (the
// error is latched and reported through done), so a dead peer drains the
// queue fast instead of wedging the reducer.
func (c *Comm) ringSender(st *ringState, buf []float32, to int) {
	var err error
	for {
		req := <-st.q
		if req.lo < 0 {
			st.done <- err
			return
		}
		if err != nil {
			continue
		}
		frame := sharedFramePool.Get(4 * (req.hi - req.lo))
		encodeFloats(frame, buf[req.lo:req.hi])
		if e := c.send(to, req.tag, Msg{Buf: frame, Owned: true}); e != nil {
			err = e
		}
	}
}

// AllreduceRing is the bandwidth-optimal ring allreduce: a reduce-scatter
// phase followed by an allgather phase, each of p-1 steps moving 1/p of the
// buffer. Total bytes on the wire per rank: 2(p-1)/p * len(buf)*4.
//
// The schedule is chunked and pipelined: each step's chunk is split into
// segments of SegmentBytes, sends run on a dedicated goroutine fed by the
// reducer, and every received segment is reduced in place into the
// caller's buffer straight from the pooled wire frame — segment k's reduce
// overlaps segment k+1's receive and segment k-1's send, with no
// per-segment allocation and no gather/copy-out pass.
func (c *Comm) AllreduceRing(buf []float32, op ReduceOp) error {
	p, r := c.Size(), c.Rank()
	if p == 1 || len(buf) == 0 {
		return nil
	}
	c.countAllreduce(AlgRing)
	right := (r + 1) % p
	left := (r - 1 + p) % p
	segElems := c.segmentBytes() / 4
	if segElems < 1 {
		segElems = 1
	}
	bounds := c.ringBounds(len(buf), p)
	st := c.ring()
	go c.ringSender(st, buf, right)

	// enqueue splits [lo,hi) into pipeline segments for the sender. Both
	// sides derive identical bounds, so empty chunks are skipped
	// symmetrically.
	enqueue := func(lo, hi int, tag uint32) {
		for s := lo; s < hi; s += segElems {
			e := s + segElems
			if e > hi {
				e = hi
			}
			st.q <- segReq{lo: s, hi: e, tag: tag}
		}
	}
	// finish tears the pipeline down: sentinel in, sender error out.
	finish := func() error {
		st.q <- segReq{lo: -1}
		return <-st.done
	}
	// recvSeg receives one segment [lo,hi) and folds it into buf — reducing
	// during reduce-scatter, overwriting during allgather — then returns
	// the frame to the pool.
	recvSeg := func(lo, hi int, tag uint32, reduce bool) error {
		raw, err := c.ep.Recv(left, tag)
		if err != nil {
			return err
		}
		if len(raw) != 4*(hi-lo) {
			return fmt.Errorf("got %d bytes, want %d", len(raw), 4*(hi-lo))
		}
		if reduce {
			reduceFloatsFromBytes(buf[lo:hi], raw, op)
		} else {
			decodeFloats(buf[lo:hi], raw)
		}
		sharedFramePool.Put(raw)
		return nil
	}
	// step receives chunk's segments for round `round`; each segment that
	// completes is immediately forwarded to the next round (nextTag), which
	// is what overlaps this step's reduce with the next step's send — the
	// chunk a rank reduces in step s is exactly the chunk it sends in s+1.
	step := func(chunk int, round int, reduce bool, forward bool) error {
		tag := tagAllreduce + uint32(round)
		lo, hi := bounds[chunk], bounds[chunk+1]
		for s := lo; s < hi; s += segElems {
			e := s + segElems
			if e > hi {
				e = hi
			}
			if err := recvSeg(s, e, tag, reduce); err != nil {
				return fmt.Errorf("ring allreduce round %d: %w", round, err)
			}
			if forward {
				st.q <- segReq{lo: s, hi: e, tag: tagAllreduce + uint32(round+1)}
			}
		}
		return nil
	}

	// fail joins a reducer-side error with whatever the sender saw while
	// tearing the pipeline down, so the typed *PeerError survives
	// whichever side hit the dead peer first.
	fail := func(err error) error {
		if serr := finish(); serr != nil {
			err = errors.Join(err, serr)
		}
		return err
	}

	// Reduce-scatter: prime the pipeline with this rank's own chunk, then
	// each received-and-reduced segment feeds the next step's send.
	enqueue(bounds[r], bounds[r+1], tagAllreduce)
	for s := 0; s < p-1; s++ {
		recvChunk := (r - s - 1 + p) % p
		// Forward every round, including the handoff from the last
		// reduce-scatter round into the first allgather round: the chunk
		// completed at s == p-2 is the fully reduced one this rank owns.
		if err := step(recvChunk, s, true, true); err != nil {
			return fail(err)
		}
	}
	// Allgather: received segments are final values; forward all but the
	// last round's.
	for s := 0; s < p-1; s++ {
		recvChunk := (r - s + p) % p
		if err := step(recvChunk, p-1+s, false, s < p-2); err != nil {
			return fail(err)
		}
	}
	return finish()
}

// ringBounds returns chunkBounds(n, p), cached on the communicator so
// steady-state allreduces of a stable gradient size do not reallocate it.
func (c *Comm) ringBounds(n, p int) []int {
	if len(c.boundsCache) == p+1 && c.boundsCache[p] == n {
		return c.boundsCache
	}
	c.boundsCache = chunkBounds(n, p)
	return c.boundsCache
}

// AllreduceRecursiveDoubling exchanges full buffers along hypercube
// dimensions; latency-optimal (log p rounds) for small payloads. The job
// size must be a power of two.
func (c *Comm) AllreduceRecursiveDoubling(buf []float32, op ReduceOp) error {
	p, r := c.Size(), c.Rank()
	if !isPow2(p) {
		return fmt.Errorf("recursive doubling requires power-of-two size, got %d", p)
	}
	c.countAllreduce(AlgRecursiveDoubling)
	errCh := make(chan error, 1)
	for mask, round := 1, 0; mask < p; mask, round = mask<<1, round+1 {
		peer := r ^ mask
		tag := tagAllreduce + 0x8000 + uint32(round)
		// Serialize into a pooled frame before spawning the send (the
		// reduce below mutates buf); the transport releases the frame.
		out := sharedFramePool.Get(4 * len(buf))
		encodeFloats(out, buf)
		go func() { errCh <- c.send(peer, tag, Msg{Buf: out, Owned: true}) }()
		in, err := c.ep.Recv(peer, tag)
		if err != nil {
			return fmt.Errorf("recursive doubling round %d: %w", round, joinSendErr(err, errCh))
		}
		if len(in) != 4*len(buf) {
			return fmt.Errorf("recursive doubling: length mismatch %d vs %d bytes", len(in), 4*len(buf))
		}
		reduceFloatsFromBytes(buf, in, op)
		sharedFramePool.Put(in)
		if err := <-errCh; err != nil {
			return err
		}
	}
	return nil
}

// AllgatherBytes gathers every rank's (variable-length) payload and returns
// them indexed by rank, on every rank. Implemented as gather-to-root plus
// broadcast, the pattern Horovod's coordinator uses for readiness messages.
func (c *Comm) AllgatherBytes(mine []byte) ([][]byte, error) {
	p, r := c.Size(), c.Rank()
	parts := make([][]byte, p)
	if r == 0 {
		parts[0] = append([]byte(nil), mine...)
		for from := 1; from < p; from++ {
			b, err := c.ep.Recv(from, tagGather)
			if err != nil {
				return nil, fmt.Errorf("allgather recv from %d: %w", from, err)
			}
			parts[from] = b
		}
	} else {
		if err := c.send(0, tagGather, Msg{Buf: mine}); err != nil {
			return nil, fmt.Errorf("allgather send: %w", err)
		}
	}
	packed, err := c.BcastBytes(packParts(parts), 0)
	if err != nil {
		return nil, err
	}
	return unpackParts(packed)
}

// packParts frames variable-length blobs as [count][len0]blob0[len1]blob1...
func packParts(parts [][]byte) []byte {
	size := 4
	for _, p := range parts {
		size += 4 + len(p)
	}
	out := make([]byte, 0, size)
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(parts)))
	out = append(out, hdr[:]...)
	for _, p := range parts {
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(p)))
		out = append(out, hdr[:]...)
		out = append(out, p...)
	}
	return out
}

func unpackParts(b []byte) ([][]byte, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("mpi: truncated pack header")
	}
	n := binary.LittleEndian.Uint32(b)
	b = b[4:]
	// Each part needs at least a 4-byte length header; a count beyond that
	// is hostile or corrupt input, not a short read.
	if uint64(n)*4 > uint64(len(b)) {
		return nil, fmt.Errorf("mpi: pack count %d impossible for %d bytes", n, len(b))
	}
	out := make([][]byte, n)
	for i := range out {
		if len(b) < 4 {
			return nil, fmt.Errorf("mpi: truncated pack length %d", i)
		}
		l := binary.LittleEndian.Uint32(b)
		b = b[4:]
		if uint32(len(b)) < l {
			return nil, fmt.Errorf("mpi: truncated pack payload %d", i)
		}
		out[i] = b[:l]
		b = b[l:]
	}
	return out, nil
}

func chunkBounds(n, p int) []int {
	bounds := make([]int, p+1)
	base, rem := n/p, n%p
	off := 0
	for i := 0; i < p; i++ {
		bounds[i] = off
		off += base
		if i < rem {
			off++
		}
	}
	bounds[p] = n
	return bounds
}

func isPow2(v int) bool { return v > 0 && v&(v-1) == 0 }
