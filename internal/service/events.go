package service

// Server-sent-event progress streams. Every job carries an EventLog: state
// transitions (queued → running → terminal) and rep-completion progress
// publish into it, and GET /v1/jobs/{id}/events streams it as SSE. The log
// is the serving-side face of the executor's OnRep hook — the recorder
// stays passive, so a streamed job's results are byte-identical to an
// unstreamed one.
//
// Delivery contract (what the fleet coordinator and the tests rely on):
//
//   - Event IDs are strictly increasing per job, starting at 1.
//   - Progress events are monotone: the "done" count never regresses, and
//     each distinct count is published at most once.
//   - A reconnect with Last-Event-ID resumes after that ID. When the ID has
//     fallen off the bounded ring, the stream re-synchronizes with a
//     snapshot (current state + current progress) instead of replaying
//     stale events, so monotonicity survives ring eviction.
//   - The stream ends after the terminal state event is delivered, and
//     drains immediately when the client disconnects.

import (
	"fmt"
	"net/http"
	"strconv"
	"sync"
)

// DefaultEventKeep bounds the per-job event ring: a late or reconnecting
// subscriber can replay this many recent events; older history collapses
// into a snapshot.
const DefaultEventKeep = 256

// Event is one server-sent event: a state transition or a progress update.
type Event struct {
	ID   uint64
	Type string // "state" or "progress"
	Data string // pre-marshaled JSON payload
}

// EventLog is a bounded, subscribable event history for one job. It is
// safe for concurrent publishers and subscribers; the zero value is not
// usable — construct with NewEventLog.
type EventLog struct {
	mu     sync.Mutex
	keep   int
	seq    uint64  // ID of the most recently published event
	buf    []Event // ring window, oldest first
	change chan struct{}

	lastDone  int // newest published progress count
	total     int
	lastState JobState
	done      bool // terminal state published
}

// NewEventLog builds a log retaining the last keep events (0 = default).
func NewEventLog(keep int) *EventLog {
	if keep <= 0 {
		keep = DefaultEventKeep
	}
	return &EventLog{keep: keep, change: make(chan struct{})}
}

// publish appends one event and wakes subscribers. Caller holds l.mu.
func (l *EventLog) publishLocked(typ, data string) {
	l.seq++
	l.buf = append(l.buf, Event{ID: l.seq, Type: typ, Data: data})
	if n := len(l.buf); n > l.keep {
		l.buf = append(l.buf[:0], l.buf[n-l.keep:]...)
	}
	close(l.change)
	l.change = make(chan struct{})
}

// PublishState records a job state transition. The first terminal state
// closes the stream for every subscriber; later publishes are ignored.
func (l *EventLog) PublishState(st JobState) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.done {
		return
	}
	l.lastState = st
	l.publishLocked("state", fmt.Sprintf(`{"state":%q}`, string(st)))
	if st.Terminal() {
		l.done = true
	}
}

// PublishProgress records done-of-total rep completion. Regressing or
// duplicate counts are dropped so the stream stays strictly monotone even
// if publishers race.
func (l *EventLog) PublishProgress(done, total int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.done || done <= l.lastDone {
		return
	}
	l.lastDone, l.total = done, total
	l.publishLocked("progress", fmt.Sprintf(`{"done":%d,"total":%d}`, done, total))
}

// next returns the events after the given ID, the channel that signals the
// next publish, and whether the stream is finished (terminal event already
// delivered at or before the returned events). When `after` predates the
// ring window, the buffered tail is replaced by a snapshot — the current
// state and progress — carrying IDs at the head of the stream, so the
// subscriber skips to "now" without ever observing a regressing count.
func (l *EventLog) next(after uint64) (evs []Event, wait <-chan struct{}, finished bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	oldest := l.seq + 1 - uint64(len(l.buf)) // ID of buf[0] when non-empty
	if len(l.buf) > 0 && after+1 < oldest {
		// Fell off the ring: synthesize a snapshot at the head of the
		// stream. IDs seq-1/seq keep later live events strictly increasing.
		if l.lastDone > 0 {
			evs = append(evs, Event{ID: l.seq - 1, Type: "progress",
				Data: fmt.Sprintf(`{"done":%d,"total":%d}`, l.lastDone, l.total)})
		}
		if l.lastState != "" {
			evs = append(evs, Event{ID: l.seq, Type: "state",
				Data: fmt.Sprintf(`{"state":%q}`, string(l.lastState))})
		}
		return evs, l.change, l.done
	}
	for _, e := range l.buf {
		if e.ID > after {
			evs = append(evs, e)
		}
	}
	last := after
	if len(evs) > 0 {
		last = evs[len(evs)-1].ID
	}
	return evs, l.change, l.done && last >= l.seq
}

// serveSSE streams an EventLog over w as server-sent events until the
// terminal event has been delivered or the client disconnects. A
// Last-Event-ID request header resumes after that event.
func serveSSE(w http.ResponseWriter, r *http.Request, log *EventLog) {
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	var after uint64
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.ParseUint(v, 10, 64); err == nil {
			after = n
		}
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // keep reverse proxies from buffering
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	for {
		evs, wait, finished := log.next(after)
		for _, e := range evs {
			if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.ID, e.Type, e.Data); err != nil {
				return
			}
			after = e.ID
		}
		if len(evs) > 0 {
			fl.Flush()
		}
		if finished {
			return
		}
		select {
		case <-wait:
		case <-r.Context().Done():
			return
		}
	}
}
