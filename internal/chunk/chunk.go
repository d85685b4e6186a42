// Package chunk provides Store, the append-only record store the trace,
// the in-band collector and the flow log keep their streams in.
package chunk

import "unsafe"

// A store's first chunk holds firstBytes of elements and each next one
// twice its predecessor, up to maxBytes: a short stream holds little
// memory, a long one grows without ever copying a stored element.
const (
	firstBytes = 4 << 10
	maxBytes   = 1 << 20
)

// Store is an append-only sequence of T kept in a list of chunks. Every
// chunk is allocated at its full length and an element is written once,
// by index, so a reader holding the chunk list Chunks returned may read
// those elements while the store keeps growing, as long as something
// orders the Chunks call after the appends it must see (the tracer's
// lock does).
type Store[T any] struct {
	chunks [][]T // all but the last are full
	last   int   // elements in the last chunk
	n      int
}

// Len returns the number of stored elements.
func (s *Store[T]) Len() int { return s.n }

// Append stores v after the last element.
func (s *Store[T]) Append(v T) {
	k := len(s.chunks) - 1
	if k < 0 || s.last == len(s.chunks[k]) {
		s.grow()
		k++
	}
	s.chunks[k][s.last] = v
	s.last++
	s.n++
}

// grow appends the next, empty chunk.
func (s *Store[T]) grow() {
	var zero T
	elem := max(1, int(unsafe.Sizeof(zero)))
	size := max(1, firstBytes/elem)
	if k := len(s.chunks); k > 0 {
		size = max(min(2*len(s.chunks[k-1]), maxBytes/elem), len(s.chunks[k-1]))
	}
	s.chunks = append(s.chunks, make([]T, size))
	s.last = 0
}

// Chunks returns the stored elements in order as a fresh list of chunks:
// the list is the caller's, the chunks are shared with the store.
func (s *Store[T]) Chunks() [][]T {
	out := make([][]T, len(s.chunks))
	copy(out, s.chunks)
	if k := len(out) - 1; k >= 0 {
		out[k] = out[k][:s.last]
	}
	return out
}

// Slice returns a copy of the stored elements as one slice.
func (s *Store[T]) Slice() []T {
	out := make([]T, 0, s.n)
	for _, c := range s.Chunks() {
		out = append(out, c...)
	}
	return out
}
