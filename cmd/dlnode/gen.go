package main

import (
	"time"

	"dledger/internal/workload"
)

// genTick is how often the synthetic load generator submits the
// transactions that have come due.
const genTick = 5 * time.Millisecond

// schedule replays a generator's Poisson arrivals on an absolute clock:
// arrival i is due at the sum of the first i gaps, however late the
// caller polls. Sleeping once per transaction instead caps the offered
// rate at the timer's resolution, whatever rate was asked for.
type schedule struct {
	g  *workload.Generator
	tx []byte        // the next arrival, generated ahead
	at time.Duration // its due time since the schedule's start
}

func newSchedule(g *workload.Generator) *schedule {
	tx, gap := g.Next(0)
	return &schedule{g: g, tx: tx, at: gap}
}

// due returns, in arrival order, every transaction due at or before
// now (measured from the schedule's start). Each carries its due time
// as its submission timestamp.
func (s *schedule) due(now time.Duration) [][]byte {
	var out [][]byte
	for s.at <= now {
		out = append(out, s.tx)
		var gap time.Duration
		s.tx, gap = s.g.Next(s.at)
		s.at += gap
	}
	return out
}

// generate submits s's transactions once per genTick until the process
// exits.
func generate(s *schedule, submit func([]byte)) {
	start := time.Now()
	tick := time.NewTicker(genTick)
	defer tick.Stop()
	for range tick.C {
		for _, tx := range s.due(time.Since(start)) {
			submit(tx)
		}
	}
}
