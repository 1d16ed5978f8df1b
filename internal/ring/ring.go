// Package ring provides the bounded FIFO behind every retention window in
// the engine (the pull egress's result log, a stream's in-memory
// history): a fixed-capacity ring that, once full, overwrites its oldest
// entry in O(1) instead of shifting the survivors down.
package ring

// Ring keeps the newest capacity values pushed into it, oldest first. Storage
// grows by doubling up to the capacity, so a ring that never fills costs
// only what it holds. The zero value is unusable; build rings with New.
// A Ring is not safe for concurrent use: callers hold their own lock.
type Ring[T any] struct {
	buf  []T
	head int // index in buf of the oldest value, once buf is full
	max  int
}

// New returns an empty ring retaining at most capacity values (at least 1).
func New[T any](capacity int) *Ring[T] {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring[T]{max: capacity}
}

// Len returns the number of retained values.
func (r *Ring[T]) Len() int { return len(r.buf) }

// Push appends v as the newest value. When the ring is full, the oldest
// value is overwritten and returned with evicted = true, so the caller can
// release whatever it owned.
func (r *Ring[T]) Push(v T) (old T, evicted bool) {
	if len(r.buf) < r.max {
		if len(r.buf) == cap(r.buf) {
			r.grow()
		}
		r.buf = append(r.buf, v)
		return old, false
	}
	old = r.buf[r.head]
	r.buf[r.head] = v
	if r.head++; r.head == r.max {
		r.head = 0
	}
	return old, true
}

// grow doubles the backing array, clamped to the capacity, before the
// ring is full (head is still 0, so a plain copy keeps the order).
func (r *Ring[T]) grow() {
	n := 2 * cap(r.buf)
	if n < 16 {
		n = 16
	}
	if n > r.max {
		n = r.max
	}
	//lint:ignore alloccheck growth phase only: the backing array doubles until the ring first fills, then every push overwrites in place
	buf := make([]T, len(r.buf), n)
	copy(buf, r.buf)
	r.buf = buf
}

// At returns a pointer to the i-th oldest retained value (0 = oldest),
// valid until the next Push. It panics when i is out of range.
func (r *Ring[T]) At(i int) *T {
	if i < 0 || i >= len(r.buf) {
		panic("ring: index out of range")
	}
	if i += r.head; i >= len(r.buf) {
		i -= len(r.buf)
	}
	return &r.buf[i]
}
