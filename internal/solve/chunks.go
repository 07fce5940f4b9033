package solve

import (
	"unsafe"

	"rbpebble/internal/dag"
	"rbpebble/internal/pebble"
)

// chunkBytes is the size a full chunk of a chunkList stays within.
const chunkBytes = 1 << 20

// chunkList is the append-only row store behind the exact engines'
// search memory: the state table's records and the node logs. Rows of
// width elements are numbered densely from 0 and live in fixed-size
// chunks of 1<<shift rows each, so row i sits in chunks[i>>shift] and a
// row never straddles two chunks. Growth adds a chunk and never copies
// one, so a row's storage does not move and old and new slabs are
// never live side by side. Only chunk 0 grows by copying (doubling from
// the size hint up to a full chunk), so tiny searches and small memory
// budgets do not pay for a whole chunk up front.
type chunkList[T any] struct {
	width  int
	shift  uint
	mask   int32
	chunks [][]T // every chunk but chunk 0 holds (1<<shift)*width elements
	rows   int
}

// newChunkList returns an empty list of rows of width elements, with
// room in chunk 0 for hintRows rows before it first grows.
func newChunkList[T any](width, hintRows int) chunkList[T] {
	rowBytes := width * int(unsafe.Sizeof(*new(T)))
	shift := uint(0)
	for (2<<shift)*rowBytes <= chunkBytes {
		shift++
	}
	c := chunkList[T]{width: width, shift: shift, mask: 1<<shift - 1}
	c.chunks = [][]T{make([]T, min(max(hintRows, 1), 1<<shift)*width)}
	return c
}

// len returns the number of rows.
func (c *chunkList[T]) len() int { return c.rows }

// row returns row i, a view that stays valid (and, unless written
// through, unchanged) for the life of the list.
func (c *chunkList[T]) row(i int32) []T {
	off := int(i&c.mask) * c.width
	return c.chunks[i>>c.shift][off : off+c.width : off+c.width]
}

// add appends a row and returns it. After a reset the row may hold an
// earlier row's elements, so the caller writes every element.
func (c *chunkList[T]) add() []T {
	ci := c.rows >> c.shift
	off := (c.rows & int(c.mask)) * c.width
	if ci == len(c.chunks) {
		c.chunks = append(c.chunks, make([]T, (1<<c.shift)*c.width))
	} else if off == len(c.chunks[ci]) {
		// Only chunk 0 is ever short of a full chunk.
		grown := make([]T, min(2*len(c.chunks[0]), (1<<c.shift)*c.width))
		copy(grown, c.chunks[0])
		c.chunks[0] = grown
	}
	c.rows++
	return c.chunks[ci][off : off+c.width : off+c.width]
}

// push appends v as a one-element row and returns its index.
func (c *chunkList[T]) push(v T) int32 {
	c.add()[0] = v
	return int32(c.rows - 1)
}

// at returns the element of one-element row i.
func (c *chunkList[T]) at(i int32) T { return c.row(i)[0] }

// reset empties the list and keeps its chunks for reuse.
func (c *chunkList[T]) reset() { c.rows = 0 }

// bytes returns the allocated chunk capacity in bytes.
func (c *chunkList[T]) bytes() int64 {
	var n int64
	for _, ch := range c.chunks {
		n += int64(len(ch))
	}
	return n * int64(unsafe.Sizeof(*new(T)))
}

// packedMove is a pebble.Move in one word: the kind in the top two
// bits, the node below. Node logs store moves packed, which halves a
// searchNode. Thirty bits of node ID are ample: a state key takes 3n
// bits, so no graph the exact engines can search comes near 1<<30
// nodes.
type packedMove uint32

// maxPackedNode is the largest node ID a packedMove holds.
const maxPackedNode = 1<<30 - 1

func packMove(m pebble.Move) packedMove {
	return packedMove(m.Kind)<<30 | packedMove(m.Node)
}

func (m packedMove) move() pebble.Move {
	return pebble.Move{Kind: pebble.MoveKind(m >> 30), Node: dag.NodeID(m & maxPackedNode)}
}
