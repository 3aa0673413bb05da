package machine

import (
	"slices"
	"sort"
	"unsafe"
)

// bytesOf estimates the wire size of n elements of type T. Element types
// used on the wire are flat structs (no internal pointers), so Sizeof is
// exact up to padding.
func bytesOf[T any](n int) int64 {
	var zero T
	return int64(n) * int64(unsafe.Sizeof(zero))
}

// step posts one superstep contribution through the communicator's
// backend group and returns the group's critical-path maximum; the
// collective then assigns the member's cost as max + its own charge. The
// charge callbacks see every member's posted Size so the §5.1 formulas
// need no peer payloads.
func (c *Comm) step(post Payload, read func(slots []any, sizes []int64)) Cost {
	return c.group.Step(c.proc, c.rank, post, read)
}

// commCost returns the charge for a collective, which is free on a
// single-member communicator (self-communication costs nothing in the
// α–β model).
func commCost(size int, c Cost) Cost {
	if size <= 1 {
		return Cost{Flops: c.Flops}
	}
	return c
}

// Barrier synchronizes the group, charging ⌈log₂p⌉ latency.
func Barrier(c *Comm) {
	group := c.step(Payload{}, func([]any, []int64) {})
	c.proc.cost = group.Add(commCost(c.Size(), Cost{Msgs: LogMsgs(c.Size())}))
}

// Bcast broadcasts root's data to every member. Cost per the paper's
// Table-3 model: 2xβ + 2⌈log₂p⌉α with x the message size.
func Bcast[T any](c *Comm, root int, data []T) []T {
	var out []T
	pl := Payload{V: data, Size: int64(len(data))}
	if c.rank == root {
		pl.Enc = func(int) []byte { return encodeSlice(data) }
	} else {
		pl.Dec = func(src int, b []byte) any { return decodeSlice[T](b) }
	}
	group := c.step(pl, func(slots []any, _ []int64) {
		if c.rank == root {
			out = data
			return
		}
		src := slots[root].([]T)
		out = make([]T, len(src))
		copy(out, src)
	})
	x := bytesOf[T](len(out))
	c.proc.cost = group.Add(commCost(c.Size(), Cost{Bytes: 2 * x, Msgs: 2 * LogMsgs(c.Size())}))
	return out
}

// Allgather returns every member's contribution, in rank order: the
// copying form of AllgatherRecv, where every peer's part is a fresh copy
// and the member's own part is data itself.
func Allgather[T any](c *Comm, data []T) [][]T {
	var out [][]T
	AllgatherRecv(c, data, func(parts [][]T) {
		out = parts
		for i, part := range parts {
			if i != c.rank {
				out[i] = slices.Clone(part)
			}
		}
	})
	return out
}

// AllgatherRecv is Allgather without the copies: recv runs inside the
// superstep and is handed every member's contribution, indexed by rank,
// the member's own being data. The parts slice is recv's to keep; the
// parts' storage is not: on an in-process backend a peer's part is the
// peer's own slice, which it may overwrite once the collective returns, so
// recv must not keep a part after it returns.
// Cost: xβ + ⌈log₂p⌉α with x the total gathered size.
func AllgatherRecv[T any](c *Comm, data []T, recv func(parts [][]T)) {
	total := 0
	pl := Payload{
		V:    data,
		Size: int64(len(data)),
		Enc:  func(int) []byte { return encodeSlice(data) },
		Dec:  func(src int, b []byte) any { return decodeSlice[T](b) },
	}
	group := c.step(pl, func(slots []any, sizes []int64) {
		for _, s := range sizes {
			total += int(s)
		}
		parts := make([][]T, c.Size())
		for i := range parts {
			if i == c.rank {
				parts[i] = data
			} else {
				parts[i] = slots[i].([]T)
			}
		}
		recv(parts)
	})
	c.proc.cost = group.Add(commCost(c.Size(), Cost{Bytes: bytesOf[T](total), Msgs: LogMsgs(c.Size())}))
}

// AllgatherConcat is Allgather flattened into one slice, built in one pass
// over the posted parts.
func AllgatherConcat[T any](c *Comm, data []T) []T {
	var out []T
	AllgatherRecv(c, data, func(parts [][]T) { out = slices.Concat(parts...) })
	return out
}

// Scatter distributes root's parts (len == group size); member i receives
// parts[i]. Cost: xβ + ⌈log₂p⌉α with x the total scattered size.
func Scatter[T any](c *Comm, root int, parts [][]T) []T {
	var out []T
	var mySize int64
	for _, p := range parts {
		mySize += int64(len(p))
	}
	pl := Payload{
		V:    parts,
		Size: mySize,
		Dec: func(src int, b []byte) any {
			// A network backend delivers only our own part; rebuild a
			// sparse parts view so the read path is backend-agnostic.
			sparse := make([][]T, c.Size())
			sparse[c.rank] = decodeSlice[T](b)
			return sparse
		},
	}
	if c.rank == root {
		pl.Enc = func(dst int) []byte { return encodeSlice(parts[dst]) }
		pl.Dec = nil
	}
	total := 0
	group := c.step(pl, func(slots []any, sizes []int64) {
		total = int(sizes[root])
		src := slots[root].([][]T)
		mine := src[c.rank]
		out = make([]T, len(mine))
		copy(out, mine)
	})
	c.proc.cost = group.Add(commCost(c.Size(), Cost{Bytes: bytesOf[T](total), Msgs: LogMsgs(c.Size())}))
	return out
}

// Allreduce combines equal-length vectors elementwise with op; every member
// receives the result. Cost: 2xβ + 2⌈log₂p⌉α.
func Allreduce[T any](c *Comm, data []T, op func(T, T) T) []T {
	var out []T
	pl := Payload{
		V:    data,
		Size: int64(len(data)),
		Enc:  func(int) []byte { return encodeSlice(data) },
		Dec:  func(src int, b []byte) any { return decodeSlice[T](b) },
	}
	group := c.step(pl, func(slots []any, _ []int64) {
		out = make([]T, len(data))
		copy(out, data)
		for i := 0; i < c.Size(); i++ {
			if i == c.rank {
				continue
			}
			src := slots[i].([]T)
			for k := range out {
				out[k] = op(out[k], src[k])
			}
		}
	})
	x := bytesOf[T](len(out))
	c.proc.cost = group.Add(commCost(c.Size(), Cost{
		Bytes: 2 * x,
		Msgs:  2 * LogMsgs(c.Size()),
		Flops: int64(len(out)) * LogMsgs(c.Size()),
	}))
	return out
}

// AllreduceScalar is Allreduce for a single value.
func AllreduceScalar[T any](c *Comm, v T, op func(T, T) T) T {
	return Allreduce(c, []T{v}, op)[0]
}

// ReduceSlices performs a sparse reduction: every member contributes a
// variable-length slice, combine folds two slices into one (e.g. a sorted
// merge that sums duplicates) and returns fresh storage or one of its
// arguments as is, and root receives the fold (others nil). The fold never
// shares a peer's storage; where nothing merged into root's own data, it
// is that data itself.
// Cost per the paper's sparse-reduction bound: 2xβ + 2⌈log₂p⌉α with x the
// *output* size, plus the fold work as flops.
func ReduceSlices[T any](c *Comm, root int, data []T, combine func(a, b []T) []T) []T {
	var out []T
	var inTotal int
	pl := Payload{
		V:    data,
		Size: int64(len(data)),
		Enc: func(dst int) []byte {
			if dst != root {
				return nil
			}
			return encodeSlice(data)
		},
		Dec: func(src int, b []byte) any { return decodeSlice[T](b) },
	}
	group := c.step(pl, func(slots []any, sizes []int64) {
		for _, s := range sizes {
			inTotal += int(s)
		}
		if c.rank != root {
			return
		}
		// Tree-order fold for deterministic association, straight from the
		// posted parts: combine returns fresh storage or one of its
		// arguments as is, so only a peer's part that survives unmerged is
		// copied (the root's own comes back as is).
		parts := make([][]T, c.Size())
		for i := range parts {
			parts[i] = slots[i].([]T)
		}
		for len(parts) > 1 {
			var next [][]T
			for i := 0; i+1 < len(parts); i += 2 {
				next = append(next, combine(parts[i], parts[i+1]))
			}
			if len(parts)%2 == 1 {
				next = append(next, parts[len(parts)-1])
			}
			parts = next
		}
		out = parts[0]
		for i, s := range slots {
			if i != root && len(out) > 0 && unsafe.SliceData(s.([]T)) == unsafe.SliceData(out) {
				out = slices.Clone(out)
				break
			}
		}
	})
	outLen := len(out)
	// Non-roots charge the same modeled cost: they participated in the tree.
	outBytes := bytesOf[T](outLen)
	if c.rank != root {
		outBytes = bytesOf[T](inTotal) / int64(max(1, c.Size()))
	}
	c.proc.cost = group.Add(commCost(c.Size(), Cost{
		Bytes: 2 * outBytes,
		Msgs:  2 * LogMsgs(c.Size()),
		Flops: int64(inTotal),
	}))
	return out
}

// Alltoall performs personalized all-to-all: member i's parts[j] is
// delivered to member j; the return value holds, per source rank, the slice
// it sent here. It is the copying form of AlltoallRecv: every peer's part
// is a fresh copy, and the member's own part is parts[rank] itself.
func Alltoall[T any](c *Comm, parts [][]T) [][]T {
	var out [][]T
	AlltoallRecv(c, parts, func(runs [][]T) {
		out = runs
		for i, run := range runs {
			if i != c.rank {
				out[i] = slices.Clone(run)
			}
		}
	})
	return out
}

// AlltoallRecv is Alltoall without the copies: recv runs inside the
// superstep and is handed, per source rank in rank order, the part that
// source sent here (on an in-process backend the source's own slice, on a
// network backend the decoded frame). The runs slice is recv's to keep;
// the runs' storage is not: a sender may overwrite its parts once the
// collective returns, so recv must not keep a run after it returns.
// Cost per member: max(sent, received)·β + ⌈log₂p⌉α.
func AlltoallRecv[T any](c *Comm, parts [][]T, recv func(runs [][]T)) {
	if len(parts) != c.Size() {
		c.proc.Fail(errAlltoallShape{len(parts), c.Size()})
		Abort("alltoall parts/size mismatch")
	}
	sent := 0
	for _, p := range parts {
		sent += len(p)
	}
	recvd := 0
	pl := Payload{
		V:    parts,
		Size: int64(sent),
		Enc:  func(dst int) []byte { return encodeSlice(parts[dst]) },
		Dec: func(src int, b []byte) any {
			sparse := make([][]T, c.Size())
			sparse[c.rank] = decodeSlice[T](b)
			return sparse
		},
	}
	group := c.step(pl, func(slots []any, _ []int64) {
		runs := make([][]T, c.Size())
		for i := range runs {
			runs[i] = slots[i].([][]T)[c.rank]
			recvd += len(runs[i])
		}
		recv(runs)
	})
	c.proc.cost = group.Add(commCost(c.Size(), Cost{Bytes: bytesOf[T](max(sent, recvd)), Msgs: LogMsgs(c.Size())}))
}

type errAlltoallShape [2]int

func (e errAlltoallShape) Error() string {
	return "machine: alltoall called with wrong number of parts"
}

// splitInfo is the bookkeeping triple split exchanges (24 wire bytes).
type splitInfo struct{ Color, Key, Rank int }

// split partitions the communicator by color, MPI_Comm_split style: members
// with equal color form a new communicator, ranked by (key, old rank). The
// bookkeeping exchange is charged as a small allgather; the backend derives
// the subgroup state from the agreed member list.
func split(c *Comm, color, key int) *Comm {
	mine := splitInfo{Color: color, Key: key, Rank: c.rank}
	all := make([]splitInfo, c.Size())
	pl := Payload{
		V:    mine,
		Size: 1,
		Enc:  func(int) []byte { return encodeSlice([]splitInfo{mine}) },
		Dec:  func(src int, b []byte) any { return decodeSlice[splitInfo](b)[0] },
	}
	group := c.step(pl, func(slots []any, _ []int64) {
		for i := range all {
			all[i] = slots[i].(splitInfo)
		}
	})
	// Everyone derives the same grouping.
	var members []splitInfo
	for _, in := range all {
		if in.Color == color {
			members = append(members, in)
		}
	}
	sort.Slice(members, func(a, b int) bool {
		if members[a].Key != members[b].Key {
			return members[a].Key < members[b].Key
		}
		return members[a].Rank < members[b].Rank
	})
	memberRanks := make([]int, len(members))
	newRank := 0
	for i, in := range members {
		memberRanks[i] = in.Rank
		if in.Rank == c.rank {
			newRank = i
		}
	}
	c.proc.cost = group.Add(commCost(c.Size(), Cost{Bytes: int64(24 * c.Size()), Msgs: LogMsgs(c.Size())}))
	sub := c.group.Subgroup(c.proc, c.rank, memberRanks, newRank)
	return &Comm{group: sub, rank: newRank, proc: c.proc}
}
