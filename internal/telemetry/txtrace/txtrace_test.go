package txtrace

import (
	"encoding/binary"
	"testing"
	"time"

	"dledger/internal/mempool"
	"dledger/internal/telemetry"
)

// mkTx brute-forces a payload whose content hash is (or is not)
// journey-sampled at the default 1/64 rate.
func mkTx(t *testing.T, sampled bool) []byte {
	t.Helper()
	tx := make([]byte, 64)
	for i := uint32(0); i < 1<<16; i++ {
		binary.BigEndian.PutUint32(tx, i)
		h := mempool.HashTx(tx)
		if (h[0]&63 == 0) == sampled {
			out := make([]byte, len(tx))
			copy(out, tx)
			return out
		}
	}
	t.Fatal("no payload found")
	return nil
}

func newJourneys(t *testing.T, opts Options) (*telemetry.Metrics, *Journeys) {
	t.Helper()
	m := telemetry.New(telemetry.Options{})
	j := New(m, opts)
	if j == nil {
		t.Fatal("New returned nil for enabled telemetry")
	}
	return m, j
}

func TestJourneyLifecycle(t *testing.T) {
	m, j := newJourneys(t, Options{SampleEvery: 1}) // sample everything
	tx := []byte("payment 1")
	h := mempool.HashTx(tx)

	sec := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	j.Submitted(mempool.HashTx(tx), sec(1))
	j.AdmitObserved(h, 5*time.Millisecond)
	j.ProposedBatch([][]byte{tx}, 7, sec(2))
	tr := m.Trace()
	tr.Observe(7, telemetry.StageDisperseStart, sec(2))
	tr.Observe(7, telemetry.StageDisperseDone, sec(3))
	tr.Observe(7, telemetry.StageBAInput, sec(3))
	tr.Observe(7, telemetry.StageBADecide, sec(5))
	j.DeliveredTxs([][]byte{tx}, sec(6))
	j.Proof(h, 2*time.Millisecond)
	j.EpochDelivered(7, sec(6.5))

	done := j.Completed()
	if len(done) != 1 {
		t.Fatalf("completed = %d journeys, want 1", len(done))
	}
	jr := done[0]
	if !jr.Complete || jr.Epoch != 7 || jr.Hash != h {
		t.Fatalf("journey = %+v", jr)
	}
	want := map[Phase]time.Duration{
		PhaseAdmitWait:   5 * time.Millisecond,
		PhaseMempoolWait: sec(1),
		PhaseDisperse:    sec(1),
		PhaseBA:          sec(2),
		PhaseRetrieve:    sec(1),
		PhaseDeliver:     sec(0.5),
		PhaseProof:       2 * time.Millisecond,
	}
	for p, d := range want {
		if jr.Phases[p] != d {
			t.Errorf("phase %s = %s, want %s", p, jr.Phases[p], d)
		}
	}
	// Telescoping reconciliation: the replica-clock phases sum exactly
	// to Done-Enqueued, plus the hub-measured durations.
	if got, wantSum := jr.PhaseSum(), sec(5.5)+7*time.Millisecond; got != wantSum {
		t.Errorf("PhaseSum = %s, want %s", got, wantSum)
	}
	for p := Phase(0); p < NumPhases; p++ {
		hs := m.Registry().FindHistogram(MetricName, `phase="`+p.String()+`"`)
		if hs == nil {
			t.Fatalf("no histogram for phase %s", p)
		}
		if hs.Count() != 1 {
			t.Errorf("phase %s histogram count = %d, want 1", p, hs.Count())
		}
	}
	if len(j.Live()) != 0 {
		t.Errorf("live = %d journeys after finalize, want 0", len(j.Live()))
	}
}

// TestReProposal: under HB a dropped block's transactions re-propose in
// a later epoch; the journey must follow the move and the histograms
// must count the final attempt exactly once.
func TestReProposal(t *testing.T) {
	m, j := newJourneys(t, Options{SampleEvery: 1})
	tx := []byte("re-proposed")
	j.Submitted(mempool.HashTx(tx), time.Second)
	j.ProposedBatch([][]byte{tx}, 3, 2*time.Second)
	j.ProposedBatch([][]byte{tx}, 5, 4*time.Second)

	// The abandoned epoch finalizes nothing.
	j.EpochDelivered(3, 5*time.Second)
	if n := len(j.Completed()); n != 0 {
		t.Fatalf("epoch 3 finalized %d journeys, want 0", n)
	}
	j.DeliveredTxs([][]byte{tx}, 6*time.Second)
	j.EpochDelivered(5, 6*time.Second)
	done := j.Completed()
	if len(done) != 1 || done[0].Epoch != 5 || done[0].Proposals != 2 {
		t.Fatalf("completed = %+v", done)
	}
	if done[0].Phases[PhaseMempoolWait] != 3*time.Second {
		t.Errorf("mempool_wait = %s, want 3s (to the final proposal)", done[0].Phases[PhaseMempoolWait])
	}
	if hs := m.Registry().FindHistogram(MetricName, `phase="mempool_wait"`); hs.Count() != 1 {
		t.Errorf("mempool_wait count = %d, want 1 (no double-count)", hs.Count())
	}
}

func TestSamplingIsDeterministicByHash(t *testing.T) {
	_, j := newJourneys(t, Options{})
	for i := 0; i < 256; i++ {
		tx := []byte{byte(i), byte(i >> 8)}
		h := mempool.HashTx(tx)
		if j.Sampled(h) != (h[0]&63 == 0) {
			t.Fatalf("Sampled(%x) = %v, want first-byte rule", h[:4], j.Sampled(h))
		}
	}
	samp := mkTx(t, true)
	j.Submitted(mempool.HashTx(samp), time.Second)
	if len(j.Live()) != 1 {
		t.Fatalf("sampled tx not tracked")
	}
	j.Submitted(mempool.HashTx(mkTx(t, false)), time.Second)
	if len(j.Live()) != 1 {
		t.Fatalf("unsampled tx tracked")
	}
}

func TestUnsetPhasesClampNonNegative(t *testing.T) {
	// A journey finalized with no proposal, no timeline and no delivery
	// must still produce non-negative phases.
	_, j := newJourneys(t, Options{SampleEvery: 1})
	tx := []byte("stuck")
	j.Submitted(mempool.HashTx(tx), 5*time.Second)
	j.ProposedBatch([][]byte{tx}, 2, 6*time.Second)
	j.EpochDelivered(2, 4*time.Second) // clock oddity: deliver "before" proposal
	done := j.Completed()
	if len(done) != 1 {
		t.Fatalf("completed = %d", len(done))
	}
	for p := Phase(0); p < NumPhases; p++ {
		if done[0].Phases[p] < 0 {
			t.Errorf("phase %s negative: %s", p, done[0].Phases[p])
		}
	}
}

func TestLiveEvictionBounded(t *testing.T) {
	_, j := newJourneys(t, Options{SampleEvery: 1, MaxLive: 4})
	for i := 0; i < 10; i++ {
		j.Submitted(mempool.HashTx([]byte{byte(i)}), time.Duration(i)*time.Second)
	}
	if n := len(j.Live()); n != 4 {
		t.Fatalf("live = %d, want 4 (MaxLive)", n)
	}
}

func TestNilJourneysNoOp(t *testing.T) {
	var j *Journeys
	j.Submitted(mempool.HashTx([]byte("x")), 0)
	j.AdmitObserved(mempool.Hash{}, 0)
	j.ProposedBatch([][]byte{{1}}, 1, 0)
	j.DeliveredTxs([][]byte{{1}}, 0)
	j.DeliveredHashes([]mempool.Hash{{}}, 0)
	j.Proof(mempool.Hash{}, 0)
	j.EpochDelivered(1, 0)
	if j.Sampled(mempool.Hash{}) || j.Live() != nil || j.Completed() != nil {
		t.Fatal("nil Journeys must no-op")
	}
	if New(nil, Options{}) != nil {
		t.Fatal("New(nil) must return nil")
	}
}

// TestUnsampledFastPathAllocs is the hot-path guard: an unsampled
// transaction must cost zero allocations through every per-tx hook.
func TestUnsampledFastPathAllocs(t *testing.T) {
	_, j := newJourneys(t, Options{})
	tx := mkTx(t, false)
	h := mempool.HashTx(tx)
	batch := [][]byte{tx}
	hashes := []mempool.Hash{h}
	if n := testing.AllocsPerRun(200, func() { j.Submitted(h, time.Second) }); n != 0 {
		t.Errorf("Submitted(unsampled) = %v allocs/run, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { j.ProposedBatch(batch, 1, time.Second) }); n != 0 {
		t.Errorf("ProposedBatch(unsampled) = %v allocs/run, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { j.DeliveredHashes(hashes, time.Second) }); n != 0 {
		t.Errorf("DeliveredHashes(unsampled) = %v allocs/run, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { j.Sampled(h) }); n != 0 {
		t.Errorf("Sampled = %v allocs/run, want 0", n)
	}
}
