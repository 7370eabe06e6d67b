package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// This file is the job lifecycle event stream: every state transition
// (transitionLocked) appends a JobEvent to the job's history and wakes
// the job's watchers, and GET
// /v1/jobs/{id}/events serves that history — then live updates — as
// Server-Sent Events. History plus notification (rather than a
// per-subscriber event channel) means a subscriber can connect at any
// point in the job's life and still see every transition exactly once,
// in order.

// JobEvent is one lifecycle transition of a job. Seq is 1-based and
// strictly increasing per job, and is the SSE event id. A job restored
// from the WAL as a terminal record keeps only its terminal event,
// under the Seq it had live. Every connection replays the whole
// history: Last-Event-ID is not honoured.
type JobEvent struct {
	Seq     int       `json:"seq"`
	JobID   string    `json:"job_id"`
	State   State     `json:"state"`
	At      time.Time `json:"at"`
	Backend string    `json:"backend,omitempty"`
	PST     float64   `json:"pst,omitempty"`
	Error   string    `json:"error,omitempty"`
}

// watchLocked registers a wakeup channel on the job; the returned
// cancel removes it. Callers hold s.mu.
func (s *Service) watchLocked(j *job) (ch chan struct{}, cancel func()) {
	ch = make(chan struct{}, 1)
	j.watchers = append(j.watchers, ch)
	return ch, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		for i, w := range j.watchers {
			if w == ch {
				j.watchers = append(j.watchers[:i], j.watchers[i+1:]...)
				return
			}
		}
	}
}

// handleJobEvents streams a job's lifecycle as Server-Sent Events:
// the full history first, then live transitions, closing once the job
// is terminal. The route is registered outside the TimeoutHandler
// wrapper — a lifecycle stream legitimately outlives RequestTimeout,
// and http.TimeoutHandler's ResponseWriter cannot flush.
func (s *Service) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	if s.authRequired && j.rec.Tenant != tenantID(r) {
		s.mu.Unlock()
		writeError(w, http.StatusForbidden, "job belongs to another tenant")
		return
	}
	ch, cancel := s.watchLocked(j)
	s.mu.Unlock()
	defer cancel()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	cursor := 0
	for {
		s.mu.Lock()
		pendingEvents := append([]JobEvent(nil), j.events[cursor:]...)
		s.mu.Unlock()
		cursor += len(pendingEvents)
		terminal := false
		for _, ev := range pendingEvents {
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "id: %d\nevent: state\ndata: %s\n\n", ev.Seq, data); err != nil {
				return
			}
			if ev.State.Terminal() {
				terminal = true
			}
		}
		if len(pendingEvents) > 0 {
			flusher.Flush()
		}
		if terminal {
			return
		}
		select {
		case <-ch:
		case <-r.Context().Done():
			return
		case <-s.stopCh:
			// Shutdown fails or finishes every job, so one more pass
			// drains the terminal event; after that the loop exits via
			// the terminal check or the client hangs up.
			select {
			case <-ch:
			case <-r.Context().Done():
				return
			}
		}
	}
}
