// Package ring provides a fixed-capacity ring buffer used as a
// double-ended queue. The timing pipeline keeps its program-order queues
// (fetch queue, reorder buffer, unissued-store queue) in ring buffers so
// that head pops are O(1) and — unlike reslicing a Go slice — do not leave
// dead elements reachable through the backing array. Each queue has an
// architectural bound, so the buffer is sized once at construction and
// never grows.
package ring

// Buffer is a fixed-capacity ring buffer. Capacity is a power of two, so
// index wrapping is a mask. Popped and cleared slots are zeroed so the
// buffer never retains references to removed elements. The zero value
// has capacity 0; New sizes a buffer.
type Buffer[T any] struct {
	buf  []T
	head int
	n    int
}

// New returns an empty buffer holding at least n elements (n rounded up
// to a power of two).
func New[T any](n int) Buffer[T] {
	c := 1
	for c < n {
		c *= 2
	}
	return Buffer[T]{buf: make([]T, c)}
}

// Len reports the number of buffered elements.
func (b *Buffer[T]) Len() int { return b.n }

// PushBack appends v at the tail; it panics on a full buffer.
func (b *Buffer[T]) PushBack(v T) {
	if b.n == len(b.buf) {
		panic("ring: PushBack on full buffer")
	}
	b.buf[(b.head+b.n)&(len(b.buf)-1)] = v
	b.n++
}

// PopFront removes and returns the head element; it panics on an empty
// buffer.
func (b *Buffer[T]) PopFront() T {
	if b.n == 0 {
		panic("ring: PopFront on empty buffer")
	}
	var zero T
	v := b.buf[b.head]
	b.buf[b.head] = zero
	b.head = (b.head + 1) & (len(b.buf) - 1)
	b.n--
	return v
}

// PopBack removes and returns the tail element; it panics on an empty
// buffer.
func (b *Buffer[T]) PopBack() T {
	if b.n == 0 {
		panic("ring: PopBack on empty buffer")
	}
	var zero T
	i := (b.head + b.n - 1) & (len(b.buf) - 1)
	v := b.buf[i]
	b.buf[i] = zero
	b.n--
	return v
}

// Front returns the head element without removing it; it panics on an
// empty buffer.
func (b *Buffer[T]) Front() T {
	if b.n == 0 {
		panic("ring: Front on empty buffer")
	}
	return b.buf[b.head]
}

// Back returns the tail element without removing it; it panics on an
// empty buffer.
func (b *Buffer[T]) Back() T {
	if b.n == 0 {
		panic("ring: Back on empty buffer")
	}
	return b.buf[(b.head+b.n-1)&(len(b.buf)-1)]
}

// At returns the element i positions from the head (At(0) == Front()); it
// panics when i is out of range.
func (b *Buffer[T]) At(i int) T {
	if i < 0 || i >= b.n {
		panic("ring: At index out of range")
	}
	return b.buf[(b.head+i)&(len(b.buf)-1)]
}

// Clear removes every element, zeroing the occupied slots. Capacity is
// retained.
func (b *Buffer[T]) Clear() {
	var zero T
	for i := 0; i < b.n; i++ {
		b.buf[(b.head+i)&(len(b.buf)-1)] = zero
	}
	b.head, b.n = 0, 0
}
