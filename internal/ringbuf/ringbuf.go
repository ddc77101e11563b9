// Package ringbuf provides Ring, the bounded oldest-first history that
// every in-memory log of the middleware keeps: the telemetry journal,
// the trace and decision rings, the MonitoringStore, the wsBus message
// log and dead-letter queue, and the checkpoint-event history. Once a
// Ring is full, each Push overwrites the oldest value, so a history
// never holds more than its capacity and never shifts its contents.
//
// A Ring takes no lock: its owners already stamp sequence numbers,
// counts or durable keys under a mutex of their own, and call the Ring
// under that mutex.
package ringbuf

import "slices"

// Ring is a fixed-capacity FIFO. Its backing slice grows with the
// values pushed until it reaches the capacity and is reused from then
// on, so Push does not allocate once the ring is full.
type Ring[T any] struct {
	buf  []T // grows to size, then wraps
	head int // index of the oldest value once full
	size int
}

// New builds a ring holding at most capacity values. A capacity below
// one is a programming error: owners apply their defaults first.
func New[T any](capacity int) *Ring[T] {
	if capacity < 1 {
		panic("ringbuf: capacity must be positive")
	}
	return &Ring[T]{size: capacity}
}

// Push appends v. When the ring is full it overwrites the oldest value
// and returns it with ok true.
func (r *Ring[T]) Push(v T) (evicted T, ok bool) {
	if len(r.buf) < r.size {
		r.buf = append(r.buf, v)
		return evicted, false
	}
	evicted, r.buf[r.head] = r.buf[r.head], v
	if r.head++; r.head == r.size {
		r.head = 0
	}
	return evicted, true
}

// Len returns the number of values held.
func (r *Ring[T]) Len() int { return len(r.buf) }

// Reset drops every value, keeping the backing slice for reuse.
func (r *Ring[T]) Reset() {
	clear(r.buf)
	r.buf = r.buf[:0]
	r.head = 0
}

// Each calls fn on the values oldest first until fn returns false.
func (r *Ring[T]) Each(fn func(T) bool) {
	for _, part := range [2][]T{r.buf[r.head:], r.buf[:r.head]} {
		for _, v := range part {
			if !fn(v) {
				return
			}
		}
	}
}

// Newest returns the newest limit values for which keep reports true,
// oldest first. It scans from the newest value and stops once it has
// limit matches. A limit of zero or less keeps every match; a nil keep
// matches every value.
func (r *Ring[T]) Newest(limit int, keep func(T) bool) []T {
	var out []T
	for _, part := range [2][]T{r.buf[:r.head], r.buf[r.head:]} {
		for i := len(part) - 1; i >= 0 && (limit <= 0 || len(out) < limit); i-- {
			if keep == nil || keep(part[i]) {
				out = append(out, part[i])
			}
		}
	}
	slices.Reverse(out)
	return out
}
