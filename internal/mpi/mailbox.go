package mpi

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// frame is one queued message. ctx carries the sender's causal trace
// context (zero Span = unstamped); both transports queue this struct, so
// context survives mailbox buffering and out-of-tag reordering alike.
type frame struct {
	tag uint32
	buf []byte
	ctx TraceCtx
}

// mailbox is the inbound queue for one (receiver, sender) pair on either
// transport: the buffered channel the sender (in-process) or the peer's read
// loop (TCP) feeds, plus the frames that arrived carrying a tag no Recv has
// asked for yet.
type mailbox struct {
	ch      chan frame
	mu      sync.Mutex
	pending []frame // out-of-tag frames awaiting a matching recv
}

// mailboxDepth is how many frames a sender can run ahead of the receiver's
// Recv calls before Send blocks. Send must not require a posted Recv (see
// Endpoint), so the slack has to cover everything a protocol sends to one
// peer before reading from it; the collectives stay far below this.
const mailboxDepth = 1024

func newMailbox() *mailbox { return &mailbox{ch: make(chan frame, mailboxDepth)} }

// errMailboxClosed reports that the feeding side closed the channel. Only
// the TCP read loop does; its Recv substitutes the peer's latched cause.
var errMailboxClosed = errors.New("mpi: mailbox closed")

// recv returns the next frame from the peer carrying tag. Frames with other
// tags are queued for their own recv instead of being dropped; an expired
// timeout (zero or negative blocks forever) yields a typed *PeerError.
// Concurrent recvs on one mailbox are not supported beyond the pending
// queue's lock (protocols are sequential per peer pair).
func (mb *mailbox) recv(from int, tag uint32, timeout time.Duration) (frame, error) {
	mb.mu.Lock()
	for i, m := range mb.pending {
		if m.tag == tag {
			mb.pending = append(mb.pending[:i:i], mb.pending[i+1:]...)
			mb.mu.Unlock()
			return m, nil
		}
	}
	mb.mu.Unlock()
	var expired <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		expired = t.C
	}
	for {
		select {
		case m, ok := <-mb.ch:
			if !ok {
				return frame{}, errMailboxClosed
			}
			if m.tag == tag {
				return m, nil
			}
			mb.mu.Lock()
			mb.pending = append(mb.pending, m)
			mb.mu.Unlock()
		case <-expired:
			return frame{}, &PeerError{Rank: from, Op: OpRecv, Err: ErrTimeout}
		}
	}
}

// reset discards everything queued, matched or not: the clean slate a
// restarted rank's new incarnation starts from.
func (mb *mailbox) reset() {
	for len(mb.ch) > 0 {
		select {
		case <-mb.ch:
		default:
		}
	}
	mb.mu.Lock()
	mb.pending = nil
	mb.mu.Unlock()
}

// subTable is one rank's tag -> side-channel table (Comm.Subscribe). The
// delivering side — the sender in-process, the read loop on TCP — routes a
// matching frame into the subscription instead of the mailbox.
type subTable struct {
	mu sync.RWMutex
	m  map[uint32]chan Tagged
}

func (t *subTable) subscribe(tag uint32, buf int) (<-chan Tagged, error) {
	if buf < 1 {
		buf = 64
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.m[tag]; dup {
		return nil, fmt.Errorf("mpi: tag %#x already subscribed", tag)
	}
	if t.m == nil {
		t.m = make(map[uint32]chan Tagged)
	}
	ch := make(chan Tagged, buf)
	t.m[tag] = ch
	return ch, nil
}

// deliver routes a frame to its tag subscription, if one exists. Delivery
// is non-blocking: a full (or abandoned) subscriber loses frames rather than
// stalling the sender or read loop that feeds the collectives.
func (t *subTable) deliver(from int, tag uint32, payload []byte) bool {
	t.mu.RLock()
	ch := t.m[tag]
	t.mu.RUnlock()
	if ch == nil {
		return false
	}
	select {
	case ch <- Tagged{From: from, Payload: payload}:
	default: // subscriber is behind; drop (lossy by design)
	}
	return true
}

func (t *subTable) clear() {
	t.mu.Lock()
	t.m = nil
	t.mu.Unlock()
}
