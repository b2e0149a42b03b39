package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
)

// Shrink is the survivor-agreement protocol that turns a job with dead
// ranks back into a working one: survivors exchange failure bitmaps over
// the surviving mesh, agree on who is gone, and construct a new
// contiguous-rank communicator over the survivors (reusing the parent
// transport through the same sub-endpoint machinery as Split, so the ring
// and recursive-doubling collectives are automatically re-derived for the
// new size).
//
// Failure model: fail-stop. A dead rank stops responding to everyone, and
// live ranks can always reach each other. Suspects are treated as hints
// only — every peer, suspected or not, is probed during the exchange, and a
// rank is declared dead only on direct evidence: a latched transport error,
// a failed send, or a run of probe timeouts. This keeps a cascaded
// collective failure (a survivor reporting a PeerError against another
// survivor because the real death broke the collective between them) from
// evicting live ranks.
//
// The protocol runs a fixed number of bitmap-exchange rounds (observations
// are OR-unioned, so deaths discovered by one survivor propagate to all),
// then a commit phase requiring every survivor's final bitmap to be
// byte-equal. A commit mismatch or timeout — a rank died mid-protocol, or
// survivors entered it too far apart — returns an error; callers retry with
// a fresh Epoch after a backoff.

// ShrinkOptions configure one attempt of the survivor-agreement protocol.
type ShrinkOptions struct {
	// Epoch namespaces the protocol's tags and the resulting communicator.
	// Use a fresh value per recovery attempt so stale frames from earlier
	// epochs cannot be mistaken for this one's. Must be in [0, 4096).
	Epoch int
	// AllowMinority disables the quorum rule: the surviving partition may
	// form a new world even without a strict majority of the previous
	// epoch's ranks. Only safe when an out-of-band guarantee rules out a
	// concurrent majority (tests, single-host demos); production callers
	// should park on ErrNoQuorum instead.
	AllowMinority bool
}

const maxShrinkEpoch = 1 << 12

const (
	// shrinkRounds is the number of bitmap-exchange rounds before the
	// commit phase: one to share direct observations, one to let the union
	// stabilize.
	shrinkRounds = 2
	// probeAttempts is how many consecutive Recv timeouts (each bounded by
	// the transport's Recv deadline) declare a silent peer dead in Shrink
	// and Grow, covering a live survivor that is still waiting out its own
	// collective's deadline before joining the protocol.
	probeAttempts = 3
)

// ErrEvicted reports that the other survivors agreed this rank was dead; it
// must not rejoin the job.
var ErrEvicted = errors.New("evicted by survivor agreement")

// Shrink agrees on the survivor set with the other live ranks and returns a
// new contiguous-rank communicator over the survivors plus their ranks in
// this communicator's numbering (sorted ascending; the new rank is the
// index). suspects are this rank's initial hints — typically the rank named
// by the PeerError that triggered recovery. The parent communicator remains
// the transport owner: closing the returned Comm is a no-op, aborting it
// aborts the job.
func (c *Comm) Shrink(suspects []int, opts ShrinkOptions) (*Comm, []int, error) {
	if opts.Epoch < 0 || opts.Epoch >= maxShrinkEpoch {
		return nil, nil, fmt.Errorf("mpi: shrink epoch %d out of range [0,%d): %w",
			opts.Epoch, maxShrinkEpoch, ErrEpochExhausted)
	}
	p, r := c.Size(), c.Rank()
	if p == 1 {
		return c, []int{0}, nil
	}

	// A peer is marked dead only on direct evidence; hints just say where
	// to expect silence. Suspected peers are still probed with the full
	// patience so a cascade-suspected survivor is retained.
	dead := make([]bool, p)
	tag := func(round int) uint32 {
		return tagShrink + uint32(opts.Epoch)*16 + uint32(round)
	}

	// probe receives peer's message for a round, retrying timeouts: a live
	// peer may enter the protocol late (it was still waiting out a
	// collective deadline when this rank started). Non-timeout peer errors
	// (latched disconnects) are immediate evidence. Patience escalates with
	// the round: a rank that spent a full probe budget on a silent-but-
	// connected peer in round k is up to that budget behind its faster
	// peers, so later rounds (and above all the commit round) must wait at
	// least one budget longer than the previous round — otherwise the fast
	// side commits while the slow side is still exchanging, and the two
	// halves diverge on the survivor set.
	probe := func(peer, round int) ([]byte, error) {
		var lastErr error
		for a := 0; a < probeAttempts*(round+1); a++ {
			b, err := c.Recv(peer, tag(round))
			if err == nil {
				return b, nil
			}
			lastErr = err
			if pe, ok := AsPeerError(err); !ok || !pe.Timeout() {
				break
			}
		}
		return nil, lastErr
	}

	// exchange sends my bitmap to every peer and collects the live ones',
	// marking peers dead on send failure or exhausted probes. Peers already
	// marked dead still get a best-effort send (errors ignored): if one of
	// them is actually a live rank the survivors out-voted — it entered the
	// protocol after our probe patience ran out — the bitmap carrying its own
	// bit tells it it was evicted, instead of leaving it to conclude everyone
	// else died and continue as a split-brain singleton job. Sends and
	// receives run concurrently per peer (each peer pair still sees
	// sequential traffic per direction, which the transports require).
	exchange := func(round int) ([][]byte, []bool, error) {
		bm := packBitmap(dead)
		got := make([][]byte, p)
		failed := make([]bool, p)
		var wg sync.WaitGroup
		var mu sync.Mutex
		for peer := 0; peer < p; peer++ {
			if peer == r {
				continue
			}
			if dead[peer] {
				wg.Add(1)
				go func(peer int) {
					defer wg.Done()
					c.Send(peer, tag(round), bm) // best effort; peer is presumed dead
				}(peer)
				continue
			}
			wg.Add(2)
			go func(peer int) {
				defer wg.Done()
				if err := c.Send(peer, tag(round), bm); err != nil {
					mu.Lock()
					failed[peer] = true
					mu.Unlock()
				}
			}(peer)
			go func(peer int) {
				defer wg.Done()
				b, err := probe(peer, round)
				mu.Lock()
				if err != nil {
					failed[peer] = true
				} else {
					got[peer] = b
				}
				mu.Unlock()
			}(peer)
		}
		wg.Wait()
		return got, failed, nil
	}

	for round := 0; round < shrinkRounds; round++ {
		got, failed, err := exchange(round)
		if err != nil {
			return nil, nil, err
		}
		for peer := 0; peer < p; peer++ {
			if peer == r || dead[peer] {
				continue
			}
			if failed[peer] {
				dead[peer] = true
				continue
			}
			other, err := unpackBitmap(got[peer], p)
			if err != nil {
				return nil, nil, fmt.Errorf("mpi: shrink: bad bitmap from rank %d: %v", peer, err)
			}
			for i := range dead {
				dead[i] = dead[i] || other[i]
			}
		}
		if dead[r] {
			return nil, nil, fmt.Errorf("mpi: shrink: rank %d %w", r, ErrEvicted)
		}
	}

	// Commit: every survivor's final bitmap must be byte-equal. A silent or
	// disagreeing peer here means the protocol raced a new death — fail the
	// attempt so the caller retries with a fresh epoch.
	final := packBitmap(dead)
	got, failed, err := exchange(shrinkRounds)
	if err != nil {
		return nil, nil, err
	}
	for peer := 0; peer < p; peer++ {
		if peer == r || dead[peer] {
			continue
		}
		if failed[peer] {
			return nil, nil, &PeerError{Rank: peer, Op: OpShrink,
				Err: fmt.Errorf("silent during commit: %w", ErrTimeout)}
		}
		if !bytes.Equal(got[peer], final) {
			return nil, nil, fmt.Errorf("mpi: shrink: rank %d disagrees on the survivor set", peer)
		}
	}

	survivors := make([]int, 0, p)
	newRank := -1
	for i, d := range dead {
		if d {
			continue
		}
		if i == r {
			newRank = len(survivors)
		}
		survivors = append(survivors, i)
	}
	if newRank < 0 {
		return nil, nil, fmt.Errorf("mpi: shrink: rank %d %w", r, ErrEvicted)
	}
	// Quorum rule: a partition may only form a new world with a strict
	// majority of the previous epoch's ranks. Equality is NOT enough — two
	// halves of an even split must both park, or both would train. The
	// check runs after full agreement so every member of a minority
	// partition parks on the same evidence.
	if !opts.AllowMinority && 2*len(survivors) <= p {
		return nil, nil, fmt.Errorf("mpi: shrink: %d of %d ranks: %w", len(survivors), p, ErrNoQuorum)
	}
	return c.derive(&subEndpoint{
		parent:  c.ep,
		members: survivors,
		rank:    newRank,
		tagXor:  0x40000000 ^ (uint32(opts.Epoch+1) * 0x85ebca6b),
	}), survivors, nil
}

// packBitmap encodes dead ranks as a little-endian bitset.
func packBitmap(dead []bool) []byte {
	out := make([]byte, (len(dead)+7)/8)
	for i, d := range dead {
		if d {
			out[i/8] |= 1 << (i % 8)
		}
	}
	return out
}

// unpackBitmap decodes a bitset for a size-p job.
func unpackBitmap(b []byte, p int) ([]bool, error) {
	if len(b) != (p+7)/8 {
		return nil, fmt.Errorf("bitmap length %d for %d ranks", len(b), p)
	}
	out := make([]bool, p)
	for i := range out {
		out[i] = b[i/8]&(1<<(i%8)) != 0
	}
	return out, nil
}
