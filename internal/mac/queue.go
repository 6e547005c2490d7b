package mac

// Queue is the bounded FIFO transmission queue in front of a MAC state
// machine. A full queue rejects new packets (counted by the caller as
// queue drops).
type Queue struct {
	items []*SendRequest
	head  int
	cap   int
}

// NewQueue creates a queue holding at most capacity packets.
func NewQueue(capacity int) *Queue {
	if capacity <= 0 {
		panic("mac: queue capacity must be positive")
	}
	return &Queue{cap: capacity}
}

// Len returns the number of queued packets.
func (q *Queue) Len() int { return len(q.items) - q.head }

// Full reports whether the queue is at capacity.
func (q *Queue) Full() bool { return q.Len() >= q.cap }

// Push appends a packet; it returns false when full.
func (q *Queue) Push(r *SendRequest) bool {
	if q.Full() {
		return false
	}
	q.items = append(q.items, r)
	return true
}

// PushFront inserts a packet at the head of the queue (control-plane
// priority); it returns false when full.
func (q *Queue) PushFront(r *SendRequest) bool {
	if q.Full() {
		return false
	}
	if q.head > 0 {
		q.head--
		q.items[q.head] = r
		return true
	}
	q.items = append(q.items, nil)
	copy(q.items[1:], q.items)
	q.items[0] = r
	return true
}

// Peek returns the head packet without removing it, or nil when empty.
func (q *Queue) Peek() *SendRequest {
	if q.Len() == 0 {
		return nil
	}
	return q.items[q.head]
}

// Pop removes and returns the head packet, or nil when empty.
func (q *Queue) Pop() *SendRequest {
	if q.Len() == 0 {
		return nil
	}
	r := q.items[q.head]
	q.items[q.head] = nil
	q.head++
	// Compact once the dead prefix dominates, keeping amortized O(1).
	if q.head > 32 && q.head*2 >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		q.items = q.items[:n]
		q.head = 0
	}
	return r
}
