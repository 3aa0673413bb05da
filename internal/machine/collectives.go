package machine

import (
	"slices"
	"unsafe"
)

// bytesOf estimates the wire size of n elements of type T. Element types
// used on the wire are flat structs (no internal pointers), so Sizeof is
// exact up to padding.
func bytesOf[T any](n int) int64 {
	var zero T
	return int64(n) * int64(unsafe.Sizeof(zero))
}

// Members a header's data goes to, besides a member's rank (the root of
// a reduction): every member, or none.
const (
	toAll  = -1
	toNone = -2
)

// post is one rank's collective header for element type T, kept in its
// Store (Scratch), so a warm collective allocates nothing: what the rank
// posts — one slice for the members `to` names, or one part per member —
// and its views of what each member sent it, with the storage a network
// backend decodes frames into and the fold ReduceSlices runs over them.
// A rank runs one collective at a time, so one header per type serves
// every communicator it belongs to.
type post[T any] struct {
	data   []T
	parts  [][]T // one per member when non-nil: data is then unused
	to     int
	views  [][]T // by source: what it sent here, valid until Release
	frames [][]T // by source: decode storage
	fold   [][]T // ReduceSlices' tree, empty between calls
	one    [1]T  // a one-element post: AllreduceScalar's
}

// Encode is the wire form of what h sends dst (codec.go).
func (h *post[T]) Encode(dst int) []byte {
	if h.to != toAll && h.to != dst {
		return nil
	}
	if h.parts != nil {
		return encodeSlice(h.parts[dst])
	}
	return encodeSlice(h.data)
}

// Decode takes src's frame into h's view of src, over the storage the last
// frame from src was decoded into.
func (h *post[T]) Decode(src int, b []byte) {
	h.frames[src] = decodeSlice(h.frames[src], b)
	h.views[src] = h.frames[src]
}

// exchange posts data, or parts when parts is non-nil, to the members to
// names, with size elements, and opens the superstep: on return h.views
// holds, by source, what each member in reach or decoded sent this rank
// (nil for the others) and sizes every member's posted size. The caller
// reads them, then calls release.
func exchange[T any](c *Comm, data []T, parts [][]T, to int, size int64) (h *post[T], sizes []int64, group Cost) {
	h = Scratch[post[T]](c.proc)
	n := c.Size()
	if cap(h.views) < n {
		h.views, h.frames = make([][]T, n), make([][]T, n)
	}
	h.views, h.frames = h.views[:n], h.frames[:n]
	clear(h.views)
	h.data, h.parts, h.to = data, parts, to
	posts, sizes, group := c.group.Exchange(c.proc, c.rank, Payload{Codec: h, Size: size})
	for src, ps := range posts {
		if ps == nil {
			continue
		}
		if peer := ps.(*post[T]); peer.parts != nil {
			h.views[src] = peer.parts[c.rank]
		} else {
			h.views[src] = peer.data
		}
	}
	return h, sizes, group
}

// release closes the superstep exchange opened and drops h's references to
// posted storage, its own and its peers'.
func (h *post[T]) release(c *Comm) {
	c.group.Release(c.proc, c.rank)
	h.data, h.parts = nil, nil
	clear(h.views)
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
	_, _, group := c.group.Exchange(c.proc, c.rank, Payload{})
	c.group.Release(c.proc, c.rank)
	c.proc.cost = group.Add(commCost(c.Size(), Cost{Msgs: LogMsgs(c.Size())}))
}

// Bcast broadcasts root's data to every member: the copying form of
// BcastRecv, where a receiver's result is a fresh copy and the root's is
// data itself.
func Bcast[T any](c *Comm, root int, data []T) []T {
	var out []T
	BcastRecv(c, root, data, func(blk []T) {
		if out = blk; c.rank != root {
			out = slices.Clone(blk)
		}
	})
	return out
}

// BcastRecv is Bcast without the copy: recv runs inside the superstep and
// is handed root's data — at the root data itself, elsewhere the root's
// posted slice (in process) or the decoded frame. The root may overwrite
// its data once the collective returns, and a receiver's decode storage
// is reused, so recv must not keep blk after it returns. Cost per the
// paper's Table-3 model: 2xβ + 2⌈log₂p⌉α with x the message size.
func BcastRecv[T any](c *Comm, root int, data []T, recv func(blk []T)) {
	to := toNone
	if c.rank == root {
		to = toAll
	}
	h, _, group := exchange(c, data, nil, to, int64(len(data)))
	blk := h.views[root]
	recv(blk)
	h.release(c)
	x := bytesOf[T](len(blk))
	c.proc.cost = group.Add(commCost(c.Size(), Cost{Bytes: 2 * x, Msgs: 2 * LogMsgs(c.Size())}))
}

// Allgather returns every member's contribution, in rank order: the
// copying form of AllgatherRecv, where every peer's part is a fresh copy
// and the member's own part is data itself.
func Allgather[T any](c *Comm, data []T) [][]T {
	out := make([][]T, c.Size())
	AllgatherRecv(c, data, func(parts [][]T) {
		for i, part := range parts {
			if out[i] = part; i != c.rank {
				out[i] = slices.Clone(part)
			}
		}
	})
	return out
}

// AllgatherRecv is Allgather without the copies: recv runs inside the
// superstep and is handed every member's contribution, indexed by rank,
// the member's own being data. Neither the parts slice nor a peer's part
// is recv's to keep: the slice is the rank's reused view, and on an
// in-process backend a peer's part is the peer's own slice, which it may
// overwrite once the collective returns.
// Cost: xβ + ⌈log₂p⌉α with x the total gathered size.
func AllgatherRecv[T any](c *Comm, data []T, recv func(parts [][]T)) {
	h, sizes, group := exchange(c, data, nil, toAll, int64(len(data)))
	total := 0
	for _, s := range sizes {
		total += int(s)
	}
	recv(h.views)
	h.release(c)
	c.proc.cost = group.Add(commCost(c.Size(), Cost{Bytes: bytesOf[T](total), Msgs: LogMsgs(c.Size())}))
}

// Scatter distributes root's parts (len == group size); member i receives
// a fresh copy of parts[i]. Cost: xβ + ⌈log₂p⌉α with x the total
// scattered size.
func Scatter[T any](c *Comm, root int, parts [][]T) []T {
	var mySize int64
	for _, p := range parts {
		mySize += int64(len(p))
	}
	to := toNone
	if c.rank == root {
		to = toAll
	}
	h, sizes, group := exchange(c, nil, parts, to, mySize)
	total := int(sizes[root])
	out := make([]T, len(h.views[root]))
	copy(out, h.views[root])
	h.release(c)
	c.proc.cost = group.Add(commCost(c.Size(), Cost{Bytes: bytesOf[T](total), Msgs: LogMsgs(c.Size())}))
	return out
}

// Allreduce combines equal-length vectors elementwise with op; every member
// receives the result, in fresh storage. Cost: 2xβ + 2⌈log₂p⌉α.
func Allreduce[T any](c *Comm, data []T, op func(T, T) T) []T {
	out := make([]T, len(data))
	AllreduceInto(c, data, out, op)
	return out
}

// AllreduceInto is Allreduce writing the result over out, caller storage
// of data's length that must not overlap data: peers read data until the
// collective returns. The result is data folded with every peer's vector
// in rank order.
func AllreduceInto[T any](c *Comm, data, out []T, op func(T, T) T) {
	h, _, group := exchange(c, data, nil, toAll, int64(len(data)))
	copy(out, data)
	for i, src := range h.views {
		if i == c.rank {
			continue
		}
		for k := range out {
			out[k] = op(out[k], src[k])
		}
	}
	h.release(c)
	x := bytesOf[T](len(out))
	c.proc.cost = group.Add(commCost(c.Size(), Cost{
		Bytes: 2 * x,
		Msgs:  2 * LogMsgs(c.Size()),
		Flops: int64(len(out)) * LogMsgs(c.Size()),
	}))
}

// AllreduceScalar is Allreduce for a single value.
func AllreduceScalar[T any](c *Comm, v T, op func(T, T) T) T {
	h := Scratch[post[T]](c.proc)
	h.one[0] = v
	var out [1]T
	AllreduceInto(c, h.one[:], out[:], op)
	return out[0]
}

// ReduceSlices performs a sparse reduction: every member contributes a
// variable-length slice, combine folds two slices into one in fresh
// storage (e.g. a sorted merge that sums duplicates), and root receives
// the fold (others nil): fresh storage, or root's own data at p = 1.
// Cost per the paper's sparse-reduction bound: 2xβ + 2⌈log₂p⌉α with x the
// *output* size, plus the fold work as flops.
func ReduceSlices[T any](c *Comm, root int, data []T, combine func(a, b []T) []T) []T {
	h, sizes, group := exchange(c, data, nil, root, int64(len(data)))
	inTotal := 0
	for _, s := range sizes {
		inTotal += int(s)
	}
	var out []T
	if c.rank == root {
		// Tree-order fold for deterministic association, straight from the
		// posted parts, in place over the rank's fold storage: combine
		// writes fresh storage, so no fold shares a peer's part.
		parts := append(h.fold[:0], h.views...)
		for len(parts) > 1 {
			next := 0
			for i := 0; i+1 < len(parts); i += 2 {
				parts[next] = combine(parts[i], parts[i+1])
				next++
			}
			if len(parts)%2 == 1 {
				parts[next] = parts[len(parts)-1]
				next++
			}
			parts = parts[:next]
		}
		out = parts[0]
		clear(parts[:cap(parts)])
		h.fold = parts[:0]
	}
	h.release(c)
	// Non-roots charge the same modeled cost: they participated in the tree.
	outBytes := bytesOf[T](len(out))
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
	out := make([][]T, c.Size())
	AlltoallRecv(c, parts, func(runs [][]T) {
		for i, run := range runs {
			if out[i] = run; i != c.rank {
				out[i] = slices.Clone(run)
			}
		}
	})
	return out
}

// AlltoallRecv is Alltoall without the copies: recv runs inside the
// superstep and is handed, per source rank in rank order, the part that
// source sent here (on an in-process backend the source's own slice, on a
// network backend the decoded frame). Neither the runs slice nor a run is
// recv's to keep: the slice is the rank's reused view, and a sender may
// overwrite its parts once the collective returns.
// Cost per member: max(sent, received)·β + ⌈log₂p⌉α.
func AlltoallRecv[T any](c *Comm, parts [][]T, recv func(runs [][]T)) {
	if len(parts) != c.Size() {
		Abort(errAlltoallShape{len(parts), c.Size()})
	}
	sent := 0
	for _, p := range parts {
		sent += len(p)
	}
	h, _, group := exchange(c, nil, parts, toAll, int64(sent))
	recvd := 0
	for _, run := range h.views {
		recvd += len(run)
	}
	recv(h.views)
	h.release(c)
	c.proc.cost = group.Add(commCost(c.Size(), Cost{Bytes: bytesOf[T](max(sent, recvd)), Msgs: LogMsgs(c.Size())}))
}

type errAlltoallShape [2]int

func (e errAlltoallShape) Error() string {
	return "machine: alltoall called with wrong number of parts"
}
