// Package simnet is a deterministic discrete-event network emulator that
// stands in for the paper's testbeds and Mahimahi setup (see DESIGN.md).
//
// The model matches what the paper's controlled experiments emulate
// (§6.3): every node has an ingress pipe and an egress pipe, each capped
// by a (possibly time-varying) bandwidth trace; every ordered node pair
// has a one-way propagation delay. A message sent from A to B is
// serialized through A's egress pipe at A's egress rate, flies for
// delay(A,B), is serialized through B's ingress pipe at B's ingress rate,
// and is then handed to B's message handler, which executes instantly in
// simulated time.
//
// Each pipe schedules two traffic classes with byte-weighted fair
// queueing — dispersal traffic gets weight T (30 by default) versus
// retrieval's 1, reproducing the MulTcp-style priority of §5 — and
// serves the retrieval class in ascending epoch order, reproducing the
// per-epoch QUIC stream priority.
package simnet

import (
	"container/heap"
	"time"
)

// Sim is a discrete-event scheduler. Events with equal times fire in
// scheduling order, which keeps runs fully deterministic.
type Sim struct {
	now    time.Duration
	seq    uint64
	events eventHeap
}

// NewSim returns an empty simulator at time zero.
func NewSim() *Sim { return &Sim{} }

// Now returns the current simulated time.
func (s *Sim) Now() time.Duration { return s.now }

// At schedules fn at absolute time t (>= Now).
func (s *Sim) At(t time.Duration, fn func()) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	heap.Push(&s.events, event{at: t, seq: s.seq, fn: fn})
}

// After schedules fn after duration d.
func (s *Sim) After(d time.Duration, fn func()) { s.At(s.now+d, fn) }

// Run processes events until the queue empties or simulated time would
// exceed until. It returns the number of events processed.
func (s *Sim) Run(until time.Duration) int {
	n := 0
	for len(s.events) > 0 {
		ev := s.events[0]
		if ev.at > until {
			break
		}
		heap.Pop(&s.events)
		s.now = ev.at
		ev.fn()
		n++
	}
	if s.now < until {
		s.now = until
	}
	return n
}

// Pending reports whether events remain scheduled.
func (s *Sim) Pending() bool { return len(s.events) > 0 }

type event struct {
	at  time.Duration
	seq uint64
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	*h = old[:n-1]
	return ev
}
