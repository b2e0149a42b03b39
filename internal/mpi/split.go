package mpi

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Split partitions the communicator in the style of MPI_Comm_split: ranks
// passing the same non-negative color form a sub-communicator, ordered by
// (key, parent rank). Ranks passing a negative color receive a nil Comm
// (MPI_UNDEFINED). The sub-communicator reuses the parent's transport with
// translated ranks and a namespaced tag space, so collectives on different
// sub-communicators do not interfere as long as each communicator runs one
// collective at a time (the MPI usage rule).
func (c *Comm) Split(color, key int) (*Comm, error) {
	// Exchange (color, key) from every rank.
	var mine [8]byte
	binary.LittleEndian.PutUint32(mine[0:], uint32(int32(color)))
	binary.LittleEndian.PutUint32(mine[4:], uint32(int32(key)))
	parts, err := c.AllgatherBytes(mine[:])
	if err != nil {
		return nil, fmt.Errorf("mpi: split exchange: %w", err)
	}
	type member struct{ color, key, rank int }
	var group []member
	for r, p := range parts {
		if len(p) != 8 {
			return nil, fmt.Errorf("mpi: split: bad exchange payload from rank %d", r)
		}
		col := int(int32(binary.LittleEndian.Uint32(p[0:])))
		k := int(int32(binary.LittleEndian.Uint32(p[4:])))
		if col == color && col >= 0 {
			group = append(group, member{color: col, key: k, rank: r})
		}
	}
	if color < 0 {
		return nil, nil
	}
	sort.Slice(group, func(i, j int) bool {
		if group[i].key != group[j].key {
			return group[i].key < group[j].key
		}
		return group[i].rank < group[j].rank
	})
	members := make([]int, len(group))
	newRank := -1
	for i, m := range group {
		members[i] = m.rank
		if m.rank == c.Rank() {
			newRank = i
		}
	}
	if newRank < 0 {
		return nil, fmt.Errorf("mpi: split: rank %d missing from its own group", c.Rank())
	}
	return c.derive(&subEndpoint{
		parent:  c.ep,
		members: members,
		rank:    newRank,
		tagXor:  0x20000000 ^ (uint32(color+1) * 0x9e3779b1),
	}), nil
}

// subEndpoint maps a sub-communicator onto its parent transport.
type subEndpoint struct {
	parent  Endpoint
	members []int // sub rank -> parent rank
	rank    int
	tagXor  uint32
}

func (s *subEndpoint) Rank() int { return s.rank }
func (s *subEndpoint) Size() int { return len(s.members) }

func (s *subEndpoint) translate(peer int) (int, error) {
	if peer < 0 || peer >= len(s.members) {
		return 0, fmt.Errorf("mpi: sub-communicator peer %d out of range [0,%d)", peer, len(s.members))
	}
	return s.members[peer], nil
}

// Send forwards m with the peer and tag translated; ownership and trace
// context ride along, so pooled frames and causal flow tracing keep working
// on shrunk and split communicators.
func (s *subEndpoint) Send(to int, tag uint32, m Msg) error {
	p, err := s.translate(to)
	if err != nil {
		m.release()
		return err
	}
	return s.parent.Send(p, tag^s.tagXor, m)
}

func (s *subEndpoint) Recv(from int, tag uint32) ([]byte, error) {
	p, err := s.translate(from)
	if err != nil {
		return nil, err
	}
	return s.parent.Recv(p, tag^s.tagXor)
}

// Close is a no-op: the parent owns the transport.
func (s *subEndpoint) Close() error { return nil }

// Unwrap exposes the parent transport. A subscription made through a
// sub-communicator is transport-level: tags are not namespaced and the
// From field carries parent-transport numbering.
func (s *subEndpoint) Unwrap() Endpoint { return s.parent }

// Abort tears the parent transport down abruptly: aborting any derived
// communicator aborts the job it belongs to, as MPI_Abort does.
func (s *subEndpoint) Abort() { s.parent.Abort() }

// AllreduceHierarchical reduces buf across all ranks using the two-level
// scheme MVAPICH2 applies on clusters: a shared-memory-style allreduce
// within each group of groupSize consecutive ranks (a "node"), a ring
// across group leaders, and an intra-group broadcast of the result. It
// matches AllreduceRing bit-for-bit in result while moving most bytes
// inside groups — the structure internal/perf.AllreduceTime models.
func (c *Comm) AllreduceHierarchical(buf []float32, groupSize int, op ReduceOp) error {
	p := c.Size()
	if groupSize < 1 {
		return fmt.Errorf("mpi: group size %d < 1", groupSize)
	}
	if p == 1 {
		return nil
	}
	if groupSize >= p || groupSize == 1 {
		return c.AllreduceRing(buf, op)
	}
	if c.tele != nil {
		c.tele.hierarchical.Inc()
	}
	group := c.Rank() / groupSize
	local, err := c.Split(group, c.Rank())
	if err != nil {
		return err
	}
	leaderColor := -1
	if local.Rank() == 0 {
		leaderColor = 0
	}
	leaders, err := c.Split(leaderColor, c.Rank())
	if err != nil {
		return err
	}

	// 1) Intra-group allreduce: every member holds the group sum.
	if err := local.AllreduceRing(buf, op); err != nil {
		return fmt.Errorf("mpi: hierarchical intra phase: %w", err)
	}
	// 2) Leaders combine group sums across groups.
	if leaders != nil {
		if err := leaders.AllreduceRing(buf, op); err != nil {
			return fmt.Errorf("mpi: hierarchical inter phase: %w", err)
		}
	}
	// 3) Leaders broadcast the global result within their group.
	if err := local.Bcast(buf, 0); err != nil {
		return fmt.Errorf("mpi: hierarchical bcast phase: %w", err)
	}
	return nil
}
