package main

import (
	"math"
	"testing"
	"time"

	"dledger/internal/workload"
)

// TestScheduleKeepsRateAboveSleepCap polls the schedule once per
// genTick at 20,000 tx/s — far above the ~1,500 tx/s a sleep per
// transaction reaches — and checks that every due transaction comes out
// once, in order, no earlier than its stamp, and at the asked rate.
func TestScheduleKeepsRateAboveSleepCap(t *testing.T) {
	const (
		txSize = 250
		rate   = 20_000 // tx/s
		span   = 2 * time.Second
	)
	s := newSchedule(workload.NewGenerator(3, txSize, rate*txSize, 7))
	var (
		n    int
		seq  uint32
		last time.Duration
	)
	for now := genTick; now <= span; now += genTick {
		for _, tx := range s.due(now) {
			w, err := workload.Parse(tx)
			if err != nil {
				t.Fatal(err)
			}
			if w.Origin != 3 || w.Seq != seq+1 {
				t.Fatalf("tx %d: origin %d seq %d, want origin 3 seq %d", n, w.Origin, w.Seq, seq+1)
			}
			if w.Submitted > now || w.Submitted < last {
				t.Fatalf("tx %d stamped %v, polled at %v after a stamp of %v", n, w.Submitted, now, last)
			}
			seq, last = w.Seq, w.Submitted
			n++
		}
		if s.at <= now {
			t.Fatalf("a transaction due at %v was left behind at %v", s.at, now)
		}
	}
	want := rate * span.Seconds()
	if math.Abs(float64(n)-want) > 5*math.Sqrt(want) {
		t.Fatalf("%d transactions in %v, want about %.0f", n, span, want)
	}
}

// TestScheduleCatchesUpAfterStall: a poll that comes late submits the
// whole backlog at once rather than shifting the schedule.
func TestScheduleCatchesUpAfterStall(t *testing.T) {
	s := newSchedule(workload.NewGenerator(0, 100, 100*10_000, 1))
	late := len(s.due(time.Second))
	s2 := newSchedule(workload.NewGenerator(0, 100, 100*10_000, 1))
	steady := 0
	for now := genTick; now <= time.Second; now += genTick {
		steady += len(s2.due(now))
	}
	if late != steady {
		t.Fatalf("one late poll returned %d transactions, steady polling %d", late, steady)
	}
}
