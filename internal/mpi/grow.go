package mpi

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// Regrow: the other half of elasticity. Shrink removes dead ranks; Grow
// admits healed or restarted processes back, returning the world to full
// size. The protocol has two sides:
//
//   - Joiner (mpi.Rejoin): a process that parked on ErrNoQuorum, or was
//     restarted after a crash, dials the leader (root rank 0) and sends
//     join requests on the lossy TagJoin side channel, retrying with
//     seeded exponential backoff plus jitter. A request carrying a stale
//     membership epoch is answered with a typed rejection naming the
//     current epoch, which the joiner adopts before retrying.
//
//   - Members (Comm.Grow): at an epoch boundary — engines quiesced, no
//     collective in flight — every current member calls Grow. The leader
//     supplies the joiner set and runs a two-phase admit: propose (the
//     joiner set goes to every member), collective ack, then admit replies
//     to the joiners and a commit barrier on the renumbered communicator.
//     Member ranks are contiguous in root-rank order, reusing the shrink
//     epoch/tag scheme so stale frames from earlier epochs cannot alias.
//
// The grown communicator is derived directly over the root transport (not
// the shrunk sub-communicator), so repeated shrink/grow cycles do not stack
// translation layers.

// JoinRequest is one healed/restarted process asking to be readmitted.
type JoinRequest struct {
	// Root is the joiner's rank in the root (original job) numbering.
	Root int
	// Epoch is the membership epoch the joiner believes is current; -1 is
	// the wildcard a freshly restarted process uses.
	Epoch int
	// Addr is the joiner's listen address (TCP transports; empty in-process).
	Addr string
}

// GrowOptions configure one two-phase admit attempt.
type GrowOptions struct {
	// Epoch namespaces the protocol's tags and the resulting communicator,
	// sharing the shrink epoch space. Must be in [0, 4096).
	Epoch int
}

// connectTimeout bounds each wait for a transport connection after an
// admit: a member awaiting a joiner's dial, or a joiner dialing a member.
const connectTimeout = 5 * time.Second

func growXor(epoch int) uint32 {
	return 0x10000000 ^ (uint32(epoch+1) * 0xc2b2ae35)
}

// rootView walks the sub-endpoint chain down to the transport-owning
// endpoint and returns it along with each current member's rank in that
// root numbering (identity when ep is already the root).
func rootView(ep Endpoint) (Endpoint, []int) {
	var chain []*subEndpoint
	cur := ep
	for {
		s, ok := cur.(*subEndpoint)
		if !ok {
			break
		}
		chain = append(chain, s)
		cur = s.parent
	}
	size := ep.Size()
	roots := make([]int, size)
	for i := range roots {
		r := i
		for _, s := range chain {
			r = s.members[r]
		}
		roots[i] = r
	}
	return cur, roots
}

// RootMembers returns the current members' ranks in the root (original job)
// numbering — the identity for an underived communicator. This is the
// numbering join requests and admit replies use.
func (c *Comm) RootMembers() []int {
	_, roots := rootView(c.ep)
	return roots
}

// rejoiner is the optional transport capability behind the regrow protocol:
// a mesh whose dead peer slots can be reconnected. The in-process transport
// does not need it (mailboxes always exist); TCP implements it.
type rejoiner interface {
	EnableRejoin()
	RedialPeer(rank int, addr string, timeout time.Duration) error
	ReadmitWait(rank int, timeout time.Duration) error
	PeerAddrs() []string
	SetPeerAddr(rank int, addr string)
}

// EnableRejoin arms the transport's rejoin acceptor (TCP: a goroutine on the
// retained listener that readmits crashed peers' fresh connections). Returns
// false when the transport needs no arming (in-process). Safe to call more
// than once.
func EnableRejoin(c *Comm) bool {
	if rj, ok := findCapability[rejoiner](c.ep); ok {
		rj.EnableRejoin()
		return true
	}
	return false
}

// PeerAddrs returns the transport's peer address table (TCP: the rendezvous
// table, kept current through readmits), or nil for transports without one.
func (c *Comm) PeerAddrs() []string {
	if rj, ok := findCapability[rejoiner](c.ep); ok {
		return rj.PeerAddrs()
	}
	return nil
}

// probeRecv receives (peer, tag) retrying pure timeouts, mirroring the
// shrink protocol's probe patience.
func probeRecv(c *Comm, peer int, tag uint32, attempts int) ([]byte, error) {
	var lastErr error
	for a := 0; a < attempts; a++ {
		b, err := c.Recv(peer, tag)
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

// Grow admits joiners at an epoch boundary and returns the regrown
// communicator plus its member set in root numbering. Every current member
// must call Grow with the same epoch; only the leader (rank 0 of c) passes
// the joiner set — other ranks receive it in the propose phase. The epoch
// must be fresh (never used by a Shrink or Grow on this job). On error the
// current communicator c remains valid.
func (c *Comm) Grow(joiners []JoinRequest, opts GrowOptions) (*Comm, []int, error) {
	if opts.Epoch < 0 || opts.Epoch >= maxShrinkEpoch {
		return nil, nil, fmt.Errorf("mpi: grow epoch %d out of range [0,%d): %w",
			opts.Epoch, maxShrinkEpoch, ErrEpochExhausted)
	}
	rootEp, roots := rootView(c.ep)
	myRoot := roots[c.Rank()]
	p := c.Size()
	tag := func(phase int) uint32 {
		return tagGrow + uint32(opts.Epoch)*16 + uint32(phase)
	}

	if c.Rank() == 0 {
		if len(joiners) == 0 {
			return nil, nil, fmt.Errorf("mpi: grow: leader has no joiners to admit")
		}
		proposal := encodeGrowProposal(opts.Epoch, joiners)
		for peer := 1; peer < p; peer++ {
			if err := c.Send(peer, tag(0), proposal); err != nil {
				return nil, nil, &PeerError{Rank: peer, Op: OpGrow, Err: err}
			}
		}
		for peer := 1; peer < p; peer++ {
			b, err := probeRecv(c, peer, tag(1), probeAttempts)
			if err != nil {
				return nil, nil, &PeerError{Rank: peer, Op: OpGrow, Err: err}
			}
			if len(b) != 4 || int(int32(binary.LittleEndian.Uint32(b))) != opts.Epoch {
				return nil, nil, fmt.Errorf("mpi: grow: bad ack from member %d", peer)
			}
		}
	} else {
		b, err := probeRecv(c, 0, tag(0), probeAttempts)
		if err != nil {
			return nil, nil, &PeerError{Rank: 0, Op: OpGrow, Err: err}
		}
		epoch, decoded, err := decodeGrowProposal(b)
		if err != nil {
			return nil, nil, fmt.Errorf("mpi: grow proposal: %w", err)
		}
		if epoch != opts.Epoch {
			return nil, nil, fmt.Errorf("mpi: grow: proposal epoch %d, expected %d", epoch, opts.Epoch)
		}
		joiners = decoded
		var ack [4]byte
		binary.LittleEndian.PutUint32(ack[:], uint32(int32(opts.Epoch)))
		if err := c.Send(0, tag(1), ack[:]); err != nil {
			return nil, nil, &PeerError{Rank: 0, Op: OpGrow, Err: err}
		}
	}

	// Renumber: new members are the union of current members and joiners,
	// contiguous in root-rank order.
	isMember := make(map[int]bool, p+len(joiners))
	for _, r := range roots {
		isMember[r] = true
	}
	newMembers := append([]int(nil), roots...)
	for _, j := range joiners {
		if isMember[j.Root] {
			return nil, nil, fmt.Errorf("mpi: grow: joiner root rank %d is already a member", j.Root)
		}
		isMember[j.Root] = true
		newMembers = append(newMembers, j.Root)
	}
	sort.Ints(newMembers)

	// Keep the transport's address table current so a future admit (or a
	// shifted leader) can name every member's listener.
	rj, canRejoin := findCapability[rejoiner](rootEp)
	if canRejoin {
		for _, j := range joiners {
			if j.Addr != "" {
				rj.SetPeerAddr(j.Root, j.Addr)
			}
		}
	}

	// Admit replies: the leader tells each joiner the final member set (and
	// where to dial everyone). These ride the root transport's lossy
	// TagJoinReply channel — the joiner has already dialed the leader, so
	// the link exists.
	if c.Rank() == 0 {
		var addrs []string
		if canRejoin {
			addrs = rj.PeerAddrs()
		}
		joinerRoot := make(map[int]bool, len(joiners))
		for _, j := range joiners {
			joinerRoot[j.Root] = true
		}
		reply := encodeJoinReply(joinAdmit, opts.Epoch, newMembers, joinerRoot, addrs)
		for _, j := range joiners {
			if err := rootEp.Send(j.Root, TagJoinReply, Msg{Buf: reply}); err != nil {
				return nil, nil, &PeerError{Rank: j.Root, Op: OpGrow, Err: err}
			}
		}
	}

	// Connect phase: wait for each joiner's fresh transport connection (the
	// joiner dials every member after its admit). Transports that never
	// lose connections (in-process) skip this.
	if canRejoin {
		for _, j := range joiners {
			if err := rj.ReadmitWait(j.Root, connectTimeout); err != nil {
				return nil, nil, &PeerError{Rank: j.Root, Op: OpGrow, Err: err}
			}
		}
	}

	newRank := -1
	for i, r := range newMembers {
		if r == myRoot {
			newRank = i
		}
	}
	if newRank < 0 {
		return nil, nil, fmt.Errorf("mpi: grow: rank %d missing from its own grown world", myRoot)
	}
	nc := c.derive(&subEndpoint{
		parent:  rootEp,
		members: newMembers,
		rank:    newRank,
		tagXor:  growXor(opts.Epoch),
	})
	// Commit: a barrier on the grown communicator proves every member and
	// every joiner constructed the same world and can reach each other.
	if err := nc.Barrier(); err != nil {
		return nil, nil, fmt.Errorf("mpi: grow commit: %w", err)
	}
	return nc, newMembers, nil
}

// RejoinOptions configure a joiner's admission loop.
type RejoinOptions struct {
	// Epoch is the first membership epoch to present; a stale value is
	// refreshed from the leader's typed rejection. Use -1 (the wildcard)
	// after a process restart, or the last known epoch when parking.
	Epoch int
	// Addr is this process's listen address, sent to the leader so other
	// members' admit metadata stays current (TCP; empty in-process).
	Addr string
	// Timeout bounds the whole admission loop (default 30s).
	Timeout time.Duration
	// Seed drives the jitter stream (decorrelated per rank).
	Seed int64
	// RetryRejected treats a leader rejection ("that rank is still live")
	// as transient: a restarted or parked process can outrun the survivors'
	// failure detection, so the right move is to back off and ask again
	// once they have shrunk. Callers that cannot rule out a live duplicate
	// of themselves must leave this false and take ErrRejected at once.
	RetryRejected bool
}

func (o RejoinOptions) withDefaults() RejoinOptions {
	if o.Timeout <= 0 {
		o.Timeout = 30 * time.Second
	}
	return o
}

const (
	// rejoinReplyTimeout bounds each wait for the leader's reply.
	rejoinReplyTimeout = time.Second
	// The retry schedule is exponential from rejoinBaseBackoff capped at
	// rejoinMaxBackoff, with seeded jitter.
	rejoinBaseBackoff = 50 * time.Millisecond
	rejoinMaxBackoff  = 2 * time.Second
)

// Rejoin runs the joiner side of the regrow protocol on c, a root-level
// communicator for this process's original rank (World.Rejoin in-process,
// RejoinTCP over sockets, or the surviving original communicator for a rank
// that parked on ErrNoQuorum). It sends join requests to the leader with
// seeded exponential backoff plus jitter until admitted, the leader rejects
// permanently (ErrRejected), or Timeout expires. On admission it returns
// the grown communicator, its member set in root numbering, and the epoch
// the admission happened at.
func Rejoin(c *Comm, opts RejoinOptions) (*Comm, []int, int, error) {
	opts = opts.withDefaults()
	myRoot := c.Rank()
	replies, err := c.Subscribe(TagJoinReply, 16)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("mpi: rejoin: %w", err)
	}
	rng := rand.New(rand.NewSource(opts.Seed*1000003 + int64(myRoot)))
	deadline := time.Now().Add(opts.Timeout)
	epoch := opts.Epoch
	backoff := rejoinBaseBackoff
	var lastErr error
	for {
		req := encodeJoinRequest(JoinRequest{Root: myRoot, Epoch: epoch, Addr: opts.Addr})
		// Best effort: a still-partitioned or not-yet-redialed link just
		// means this attempt is lost; the loop retries.
		c.Send(0, TagJoin, req)

		var reply []byte
		replyTimer := time.NewTimer(rejoinReplyTimeout)
		select {
		case m := <-replies:
			reply = m.Payload
		case <-replyTimer.C:
		}
		replyTimer.Stop()

		if reply != nil {
			status, repEpoch, members, joinerRoots, addrs, derr := decodeJoinReply(reply)
			switch {
			case derr != nil:
				lastErr = derr
			case status == joinStale:
				// Typed refresh: adopt the leader's current epoch and retry
				// immediately — the leader just told us where the world is.
				lastErr = fmt.Errorf("mpi: rejoin: epoch %d: %w (current %d)", epoch, ErrStaleEpoch, repEpoch)
				epoch = repEpoch
				continue
			case status == joinRejected:
				if !opts.RetryRejected {
					return nil, nil, 0, fmt.Errorf("mpi: rejoin: rank %d: %w", myRoot, ErrRejected)
				}
				// The leader has not yet noticed this rank's previous
				// incarnation die; wait out its failure detection.
				lastErr = fmt.Errorf("mpi: rejoin: rank %d: %w", myRoot, ErrRejected)
			case status == joinAdmit:
				nc, err := completeJoin(c, myRoot, repEpoch, members, joinerRoots, addrs)
				if err == nil {
					return nc, members, repEpoch, nil
				}
				// A raced or stale admit (the members' Grow attempt failed
				// under us): back off and ask again.
				lastErr = err
			}
		}
		if time.Now().After(deadline) {
			if lastErr == nil {
				lastErr = ErrTimeout
			}
			return nil, nil, 0, &PeerError{Rank: 0, Op: OpJoin, Err: fmt.Errorf("rejoin gave up: %w", lastErr)}
		}
		// Exponential backoff with seeded jitter in [backoff, 2*backoff).
		time.Sleep(backoff + time.Duration(rng.Int63n(int64(backoff))))
		if backoff *= 2; backoff > rejoinMaxBackoff {
			backoff = rejoinMaxBackoff
		}
	}
}

// completeJoin finishes an admission: rebuild transport connections to every
// member, derive the grown communicator, and pass the commit barrier.
func completeJoin(c *Comm, myRoot, epoch int, members []int, joinerRoots map[int]bool, addrs []string) (*Comm, error) {
	myRank := -1
	for i, r := range members {
		if r == myRoot {
			myRank = i
		}
	}
	if myRank < 0 {
		return nil, fmt.Errorf("mpi: rejoin: admit for epoch %d omits this rank (%d)", epoch, myRoot)
	}
	rootEp, _ := rootView(c.ep)
	if rj, ok := findCapability[rejoiner](rootEp); ok {
		for _, peer := range members {
			if peer == myRoot {
				continue
			}
			// Joiners dial every survivor; between co-joiners the higher
			// root rank dials the lower, and the lower awaits the dial.
			if joinerRoots[peer] && peer > myRoot {
				if err := rj.ReadmitWait(peer, connectTimeout); err != nil {
					return nil, &PeerError{Rank: peer, Op: OpJoin, Err: err}
				}
				continue
			}
			var addr string
			if peer < len(addrs) {
				addr = addrs[peer]
			}
			if err := rj.RedialPeer(peer, addr, connectTimeout); err != nil {
				return nil, &PeerError{Rank: peer, Op: OpJoin, Err: err}
			}
		}
	}
	nc := c.derive(&subEndpoint{
		parent:  rootEp,
		members: members,
		rank:    myRank,
		tagXor:  growXor(epoch),
	})
	if err := nc.Barrier(); err != nil {
		return nil, fmt.Errorf("mpi: rejoin commit: %w", err)
	}
	return nc, nil
}

// JoinListener collects join requests on the leader. Create it once on the
// root communicator at bootstrap; Drain between steps.
type JoinListener struct {
	c  *Comm
	ch <-chan Tagged
}

// ListenJoins subscribes the TagJoin side channel on c (which must be the
// root-level communicator — subscriptions are transport-level, so requests
// keep arriving across shrinks and grows).
func ListenJoins(c *Comm) (*JoinListener, error) {
	ch, err := c.Subscribe(TagJoin, 64)
	if err != nil {
		return nil, err
	}
	return &JoinListener{c: c, ch: ch}, nil
}

// Drain returns the pending valid join requests, deduplicated by root rank.
// epoch is the leader's current membership epoch: requests carrying an
// older epoch are answered immediately with a typed stale rejection naming
// it (the joiner adopts it and retries); the wildcard epoch -1 is always
// valid. liveRoots are the current members in root numbering — a request
// from a rank that is still a member is permanently rejected.
func (jl *JoinListener) Drain(epoch int, liveRoots []int) []JoinRequest {
	live := make(map[int]bool, len(liveRoots))
	for _, r := range liveRoots {
		live[r] = true
	}
	seen := make(map[int]bool)
	var out []JoinRequest
	for {
		select {
		case m := <-jl.ch:
			req, err := decodeJoinRequest(m.Payload)
			if err != nil || seen[req.Root] {
				continue
			}
			seen[req.Root] = true
			switch {
			case live[req.Root]:
				jl.c.Send(req.Root, TagJoinReply, encodeJoinReply(joinRejected, epoch, nil, nil, nil))
			case req.Epoch != -1 && req.Epoch != epoch:
				jl.c.Send(req.Root, TagJoinReply, encodeJoinReply(joinStale, epoch, nil, nil, nil))
			default:
				out = append(out, req)
			}
		default:
			return out
		}
	}
}

// Join reply statuses.
const (
	joinAdmit    = 0
	joinStale    = 1
	joinRejected = 2
)

// encodeJoinRequest: [4B root][4B epoch (int32; -1 wildcard)][addr...].
func encodeJoinRequest(j JoinRequest) []byte {
	out := make([]byte, 8+len(j.Addr))
	binary.LittleEndian.PutUint32(out[0:], uint32(j.Root))
	binary.LittleEndian.PutUint32(out[4:], uint32(int32(j.Epoch)))
	copy(out[8:], j.Addr)
	return out
}

func decodeJoinRequest(b []byte) (JoinRequest, error) {
	if len(b) < 8 {
		return JoinRequest{}, fmt.Errorf("mpi: join request truncated (%d bytes)", len(b))
	}
	return JoinRequest{
		Root:  int(binary.LittleEndian.Uint32(b[0:])),
		Epoch: int(int32(binary.LittleEndian.Uint32(b[4:]))),
		Addr:  string(b[8:]),
	}, nil
}

// encodeGrowProposal: [4B epoch][4B n]([4B root][2B addrLen][addr])*.
func encodeGrowProposal(epoch int, joiners []JoinRequest) []byte {
	size := 8
	for _, j := range joiners {
		size += 6 + len(j.Addr)
	}
	out := make([]byte, 0, size)
	var b4 [4]byte
	binary.LittleEndian.PutUint32(b4[:], uint32(int32(epoch)))
	out = append(out, b4[:]...)
	binary.LittleEndian.PutUint32(b4[:], uint32(len(joiners)))
	out = append(out, b4[:]...)
	for _, j := range joiners {
		binary.LittleEndian.PutUint32(b4[:], uint32(j.Root))
		out = append(out, b4[:]...)
		var b2 [2]byte
		binary.LittleEndian.PutUint16(b2[:], uint16(len(j.Addr)))
		out = append(out, b2[:]...)
		out = append(out, j.Addr...)
	}
	return out
}

func decodeGrowProposal(b []byte) (int, []JoinRequest, error) {
	if len(b) < 8 {
		return 0, nil, fmt.Errorf("truncated proposal (%d bytes)", len(b))
	}
	epoch := int(int32(binary.LittleEndian.Uint32(b[0:])))
	n := binary.LittleEndian.Uint32(b[4:])
	b = b[8:]
	if uint64(n)*6 > uint64(len(b)) {
		return 0, nil, fmt.Errorf("joiner count %d impossible for %d bytes", n, len(b))
	}
	joiners := make([]JoinRequest, 0, n)
	for i := uint32(0); i < n; i++ {
		if len(b) < 6 {
			return 0, nil, fmt.Errorf("truncated joiner entry %d", i)
		}
		root := int(binary.LittleEndian.Uint32(b[0:]))
		al := int(binary.LittleEndian.Uint16(b[4:]))
		b = b[6:]
		if len(b) < al {
			return 0, nil, fmt.Errorf("truncated joiner addr %d", i)
		}
		joiners = append(joiners, JoinRequest{Root: root, Epoch: epoch, Addr: string(b[:al])})
		b = b[al:]
	}
	return epoch, joiners, nil
}

// encodeJoinReply: [1B status][4B epoch][4B n]([4B root][1B joiner][2B addrLen][addr])*.
// Member entries are present only on admits.
func encodeJoinReply(status, epoch int, members []int, joinerRoots map[int]bool, addrs []string) []byte {
	size := 9
	for _, r := range members {
		size += 7
		if r < len(addrs) {
			size += len(addrs[r])
		}
	}
	out := make([]byte, 0, size)
	out = append(out, byte(status))
	var b4 [4]byte
	binary.LittleEndian.PutUint32(b4[:], uint32(int32(epoch)))
	out = append(out, b4[:]...)
	binary.LittleEndian.PutUint32(b4[:], uint32(len(members)))
	out = append(out, b4[:]...)
	for _, r := range members {
		binary.LittleEndian.PutUint32(b4[:], uint32(r))
		out = append(out, b4[:]...)
		if joinerRoots[r] {
			out = append(out, 1)
		} else {
			out = append(out, 0)
		}
		var addr string
		if r < len(addrs) {
			addr = addrs[r]
		}
		var b2 [2]byte
		binary.LittleEndian.PutUint16(b2[:], uint16(len(addr)))
		out = append(out, b2[:]...)
		out = append(out, addr...)
	}
	return out
}

func decodeJoinReply(b []byte) (status, epoch int, members []int, joinerRoots map[int]bool, addrs []string, err error) {
	if len(b) < 9 {
		return 0, 0, nil, nil, nil, fmt.Errorf("mpi: join reply truncated (%d bytes)", len(b))
	}
	status = int(b[0])
	epoch = int(int32(binary.LittleEndian.Uint32(b[1:])))
	n := binary.LittleEndian.Uint32(b[5:])
	b = b[9:]
	if uint64(n)*7 > uint64(len(b)) {
		return 0, 0, nil, nil, nil, fmt.Errorf("mpi: join reply member count %d impossible for %d bytes", n, len(b))
	}
	joinerRoots = make(map[int]bool)
	maxRoot := -1
	type entry struct {
		root int
		addr string
	}
	entries := make([]entry, 0, n)
	for i := uint32(0); i < n; i++ {
		if len(b) < 7 {
			return 0, 0, nil, nil, nil, fmt.Errorf("mpi: join reply truncated member %d", i)
		}
		root := int(binary.LittleEndian.Uint32(b[0:]))
		isJoiner := b[4] == 1
		al := int(binary.LittleEndian.Uint16(b[5:]))
		b = b[7:]
		if len(b) < al {
			return 0, 0, nil, nil, nil, fmt.Errorf("mpi: join reply truncated addr %d", i)
		}
		if isJoiner {
			joinerRoots[root] = true
		}
		entries = append(entries, entry{root: root, addr: string(b[:al])})
		if root > maxRoot {
			maxRoot = root
		}
		members = append(members, root)
		b = b[al:]
	}
	addrs = make([]string, maxRoot+1)
	for _, e := range entries {
		addrs[e.root] = e.addr
	}
	return status, epoch, members, joinerRoots, addrs, nil
}
