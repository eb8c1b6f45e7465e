package cpusched

// Per-CPU run queues. Each queue is a binary min-heap of tasks ordered by
// the class's dispatch key, replacing the previous O(n) linear scans in
// pickNext/removeQueued with O(log n) operations. Both keys are strict
// total orders (enqueueSeq values are unique per task), so heap pop order
// is bit-identical to the order the old full scans selected.
//
// Keys are immutable while a task is queued: vruntime only advances while
// running (and is clamped/adjusted before push), rtprio only changes via
// reqSetPolicy on a running task, and enqueueSeq is reassigned before
// requeue where a bump is intended. The heap therefore never needs a fix
// operation.

// fifoLess orders SCHED_FIFO tasks: higher rtprio first, FIFO by enqueue
// sequence within a priority.
func fifoLess(a, b *Task) bool {
	if a.rtprio != b.rtprio {
		return a.rtprio > b.rtprio
	}
	return a.enqueueSeq < b.enqueueSeq
}

// fairLess orders fair-class tasks: lowest vruntime first, enqueue sequence
// as the deterministic tie-break.
func fairLess(a, b *Task) bool {
	if a.vruntime != b.vruntime {
		return a.vruntime < b.vruntime
	}
	return a.enqueueSeq < b.enqueueSeq
}

// taskQueue is a min-heap of runnable tasks. Tasks track their heap
// position in qIndex, enabling O(log n) removal of interior elements
// (balancer migration, Kill of a queued task).
type taskQueue struct {
	h    []*Task
	less func(a, b *Task) bool
}

func (q *taskQueue) len() int { return len(q.h) }

// reset empties the queue, keeping its backing array warm for reuse.
func (q *taskQueue) reset() {
	for i := range q.h {
		q.h[i] = nil
	}
	q.h = q.h[:0]
}

// tasks exposes the heap array for order-independent scans (the
// balancer's victim search). Callers must not assume any ordering
// beyond the heap invariant and must not mutate the slice.
func (q *taskQueue) tasks() []*Task { return q.h }

func (q *taskQueue) push(t *Task) {
	t.qIndex = len(q.h)
	q.h = append(q.h, t)
	q.siftUp(t.qIndex)
}

// pop removes and returns the minimum task, or nil when empty.
func (q *taskQueue) pop() *Task {
	if len(q.h) == 0 {
		return nil
	}
	t := q.h[0]
	n := len(q.h) - 1
	if n > 0 {
		q.h[0] = q.h[n]
		q.h[0].qIndex = 0
	}
	q.h[n] = nil
	q.h = q.h[:n]
	if n > 1 {
		q.siftDown(0)
	}
	t.qIndex = -1
	return t
}

// remove deletes t from the queue if present; it reports whether it was.
func (q *taskQueue) remove(t *Task) bool {
	i := t.qIndex
	if i < 0 || i >= len(q.h) || q.h[i] != t {
		return false
	}
	n := len(q.h) - 1
	if i != n {
		q.h[i] = q.h[n]
		q.h[i].qIndex = i
	}
	q.h[n] = nil
	q.h = q.h[:n]
	if i != n {
		if !q.siftUp(i) {
			q.siftDown(i)
		}
	}
	t.qIndex = -1
	return true
}

// siftUp restores heap order moving h[i] toward the root; it reports
// whether the element moved.
func (q *taskQueue) siftUp(i int) bool {
	h := q.h
	t := h[i]
	moved := false
	for i > 0 {
		p := (i - 1) / 2
		if !q.less(t, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].qIndex = i
		i = p
		moved = true
	}
	h[i] = t
	t.qIndex = i
	return moved
}

// siftDown restores heap order moving h[i] toward the leaves.
func (q *taskQueue) siftDown(i int) {
	h := q.h
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && q.less(h[r], h[l]) {
			m = r
		}
		if !q.less(h[m], h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		h[i].qIndex = i
		h[m].qIndex = m
		i = m
	}
}
