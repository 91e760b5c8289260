package comm

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Process groups: every Comm is a communicator over a member set, and
// Split/Subgroup derive sub-communicators the way MPI_Comm_split and
// MPI_Comm_create_group do — the building block for 2D parallelism, where
// the paper's deployment (§10.1) nests Megatron model parallelism inside
// each node (an MP group of consecutive ranks) under ZeRO data parallelism
// across nodes (a DP group of strided ranks), and for the intra/inter-node
// levels of a laid-out view (Nodes, internal/comm/hierarchical.go).
//
// Construction returns structured errors (ErrGroup, ErrColor, ErrTopology)
// instead of panicking, so trainers can validate a topology at setup time
// and surface the problem before any collective is in flight.

// Structured error classes for group and topology construction; match with
// errors.Is.
var (
	// ErrGroup marks invalid member lists: empty, out of range, duplicate,
	// or not containing the calling rank.
	ErrGroup = errors.New("comm: invalid group")
	// ErrColor marks an invalid Split color (anything below ColorNone).
	ErrColor = errors.New("comm: invalid split color")
	// ErrTopology marks node layouts the group cannot be tiled by (node
	// size not positive, or not dividing the group size).
	ErrTopology = errors.New("comm: invalid topology")
)

// ColorNone is the Split color for ranks that opt out of every subgroup
// (MPI_UNDEFINED): Split returns (nil, nil) for them.
const ColorNone = -1

// Split partitions the communicator into disjoint sub-communicators, one
// per distinct color, and returns the one this rank belongs to — the
// MPI_Comm_split idiom. Members of a subgroup are ordered by (key, parent
// rank). A rank passing ColorNone participates in the exchange but joins no
// group (returns nil, nil). Colors below ColorNone are invalid; because the
// color exchange is itself a collective, every member must call Split, and
// an invalid color anywhere makes Split return ErrColor on *every* member
// (no rank is left blocked on a group that will never form).
func (c *Comm) Split(color, key int) (*Comm, error) {
	n := c.Size()
	// The wire payload is int32; colors or keys outside that range cannot
	// be exchanged faithfully (silent truncation would merge distinct
	// colors). An out-of-range value is replaced by a sentinel below
	// ColorNone so the *exchange still completes* and every member fails
	// together, exactly like a remote invalid color.
	const wireInvalid = math.MinInt32
	overflow := color > math.MaxInt32 || key < math.MinInt32 || key > math.MaxInt32
	valid := !overflow && color >= ColorNone
	wireColor, wireKey := int32(wireInvalid), int32(0)
	if valid {
		wireColor, wireKey = int32(color), int32(key)
	}
	// Exchange (color, key) via an all-gather of bit-exact int32 payloads:
	// Float32frombits round-trips any 32-bit pattern through the float32
	// wire without arithmetic touching it.
	buf := make([]float32, 2*n)
	buf[2*c.pos] = math.Float32frombits(uint32(wireColor))
	buf[2*c.pos+1] = math.Float32frombits(uint32(wireKey))
	if n > 1 {
		ringAllGather(c, buf, Partition(len(buf), n), c.pos)
	}
	if overflow {
		return nil, fmt.Errorf("%w: color %d / key %d do not fit the int32 exchange", ErrColor, color, key)
	}
	if !valid {
		return nil, fmt.Errorf("%w: color %d (want ≥ %d, or ColorNone to opt out)", ErrColor, color, ColorNone)
	}
	colors := make([]int, n)
	keys := make([]int, n)
	for i := 0; i < n; i++ {
		colors[i] = int(int32(math.Float32bits(buf[2*i])))
		keys[i] = int(int32(math.Float32bits(buf[2*i+1])))
	}
	for i, col := range colors {
		if col < ColorNone {
			return nil, fmt.Errorf("%w: member %d passed color %d (want ≥ %d)", ErrColor, i, col, ColorNone)
		}
	}
	if color == ColorNone {
		return nil, nil
	}
	var members []int
	for i, col := range colors {
		if col == color {
			members = append(members, i)
		}
	}
	sort.SliceStable(members, func(a, b int) bool {
		return keys[members[a]] < keys[members[b]]
	})
	return c.Subgroup(members)
}

// Subgroup creates a sub-communicator over the given members without any
// communication (the MPI_Comm_create_group shape): members are group-local
// ranks of the *parent* communicator, must include the calling rank, and
// must contain no duplicates. Every listed member must make the same call
// before using the subgroup collectively; member order defines the
// subgroup's rank order.
func (c *Comm) Subgroup(members []int) (*Comm, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("%w: empty member list", ErrGroup)
	}
	n := c.Size()
	pos := -1
	seen := make(map[int]bool, len(members))
	global := make([]int, len(members))
	for i, m := range members {
		if m < 0 || m >= n {
			return nil, fmt.Errorf("%w: member %d out of range [0,%d)", ErrGroup, m, n)
		}
		if seen[m] {
			return nil, fmt.Errorf("%w: duplicate member %d", ErrGroup, m)
		}
		seen[m] = true
		if m == c.pos {
			pos = i
		}
		global[i] = c.global(m)
	}
	if pos < 0 {
		return nil, fmt.Errorf("%w: rank %d is not a member", ErrGroup, c.pos)
	}
	cp := *c
	cp.members = global
	cp.pos = pos
	// A subgroup's member set differs from its parent's, so the parent's
	// node layout does not apply: subgroups route flat.
	cp.nodes = nil
	cp.bindWires()
	return &cp, nil
}

// CheckNodeSize validates that a group of the given size tiles into nodes
// of nodeSize ranks; the error wraps ErrTopology.
func CheckNodeSize(size, nodeSize int) error {
	if nodeSize <= 0 || size%nodeSize != 0 {
		return fmt.Errorf("%w: group size %d is not a positive multiple of node size %d", ErrTopology, size, nodeSize)
	}
	return nil
}

// MPGroup returns the model-parallel group this rank belongs to when the
// group is laid out as consecutive blocks of mpSize ranks (ranks 0..mp-1
// form replica 0, etc. — MP inside the "node"). Collective: every member
// of c must call it. Traffic is attributed to the "mp" group label.
func (c *Comm) MPGroup(mpSize int) (*Comm, error) {
	if err := CheckNodeSize(c.Size(), mpSize); err != nil {
		return nil, err
	}
	g, err := c.Split(c.pos/mpSize, c.pos)
	if err != nil {
		return nil, err
	}
	return g.named("mp"), nil
}

// DPGroup returns the data-parallel group: ranks with the same MP position
// across replicas (stride mpSize). Collective: every member of c must call
// it. Traffic is attributed to the "dp" group label.
func (c *Comm) DPGroup(mpSize int) (*Comm, error) {
	if err := CheckNodeSize(c.Size(), mpSize); err != nil {
		return nil, err
	}
	g, err := c.Split(c.pos%mpSize, c.pos)
	if err != nil {
		return nil, err
	}
	return g.named("dp"), nil
}
