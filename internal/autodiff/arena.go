package autodiff

import "anchor/internal/matrix"

// arena is the resettable allocator behind every Tape. Nodes,
// Dense headers, float buffers (values, gradients, backward scratch), and
// int scratch all come from chunked slabs that Reset rewinds without
// freeing, so a tape that is reset between minibatches reaches a steady
// state where recording and differentiating a step performs no heap
// allocation beyond the per-op backward closures.
//
// The arena is a bump allocator: nothing is freed individually, and a
// buffer stays valid exactly until the next reset. That matches the tape
// lifecycle — forward values and gradients are only read between the ops
// that record them and the optimizer step that consumes them.
//
// Float slabs are sized by demand: the first holds firstFloatSlabLen
// floats, and each later one doubles the one before, up to floatSlabLen,
// so a one-shot tape that records little takes little. A reset tape
// replays the same slab sequence, so its steady state allocates none.
const (
	nodeChunkLen      = 256
	denseChunkLen     = 256
	firstFloatSlabLen = 1 << 10 // 1k float64s = 8 KiB
	floatSlabLen      = 1 << 16 // 64k float64s = 512 KiB
	intSlabLen        = 1 << 12
)

type arena struct {
	nodeChunks [][]Node
	nodeN      int

	denseChunks [][]matrix.Dense
	denseN      int

	slabs []([]float64)
	slab  int // index of the slab currently bump-allocated from
	off   int // offset into slabs[slab]

	intSlabs []([]int)
	intSlab  int
	intOff   int
}

// reset rewinds every allocation counter, keeping all capacity.
func (a *arena) reset() {
	a.nodeN, a.denseN = 0, 0
	a.slab, a.off = 0, 0
	a.intSlab, a.intOff = 0, 0
}

// node returns a zeroed Node with a stable address (chunks never move).
func (a *arena) node() *Node {
	chunk, i := a.nodeN/nodeChunkLen, a.nodeN%nodeChunkLen
	if chunk == len(a.nodeChunks) {
		a.nodeChunks = append(a.nodeChunks, make([]Node, nodeChunkLen))
	}
	a.nodeN++
	n := &a.nodeChunks[chunk][i]
	*n = Node{}
	return n
}

// dense returns a Dense header with a stable address; the caller attaches
// shape and a data buffer.
func (a *arena) dense() *matrix.Dense {
	chunk, i := a.denseN/denseChunkLen, a.denseN%denseChunkLen
	if chunk == len(a.denseChunks) {
		a.denseChunks = append(a.denseChunks, make([]matrix.Dense, denseChunkLen))
	}
	a.denseN++
	d := &a.denseChunks[chunk][i]
	*d = matrix.Dense{}
	return d
}

// floats bump-allocates n float64s. Contents are stale from earlier
// rounds; callers must fully overwrite or zero them.
func (a *arena) floats(n int) []float64 {
	for {
		if a.slab < len(a.slabs) && a.off+n <= len(a.slabs[a.slab]) {
			s := a.slabs[a.slab][a.off : a.off+n : a.off+n]
			a.off += n
			return s
		}
		if a.slab < len(a.slabs)-1 {
			a.slab++
			a.off = 0
			continue
		}
		size := firstFloatSlabLen
		if k := len(a.slabs); k > 0 {
			size = min(2*len(a.slabs[k-1]), floatSlabLen)
		}
		a.slabs = append(a.slabs, make([]float64, max(size, n)))
		a.slab = len(a.slabs) - 1
		a.off = 0
	}
}

// ints bump-allocates n ints (same contract as floats).
func (a *arena) ints(n int) []int {
	for {
		if a.intSlab < len(a.intSlabs) && a.intOff+n <= len(a.intSlabs[a.intSlab]) {
			s := a.intSlabs[a.intSlab][a.intOff : a.intOff+n : a.intOff+n]
			a.intOff += n
			return s
		}
		if a.intSlab < len(a.intSlabs)-1 {
			a.intSlab++
			a.intOff = 0
			continue
		}
		size := intSlabLen
		if n > size {
			size = n
		}
		a.intSlabs = append(a.intSlabs, make([]int, size))
		a.intSlab = len(a.intSlabs) - 1
		a.intOff = 0
	}
}
