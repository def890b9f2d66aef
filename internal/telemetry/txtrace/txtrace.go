// Package txtrace follows sampled transactions end to end: client
// submit → gateway admission → mempool enqueue → proposal inclusion →
// dispersal → BA decide → delivery → proof stream. It is a pure
// telemetry layer: the gateway, mempool and replica emit journey
// events into a Journeys collector, and the epoch segment of each
// journey is joined against the epoch Tracer by epoch number at
// delivery time. Nothing here touches wire or WAL formats, so seeded
// runs replay byte-identically with tracing on or off.
//
// Sampling is deterministic by content hash: a transaction is sampled
// iff the first byte of its sha256 content hash has its low bits
// clear (default 1-in-64). Every node — and every replay — therefore
// samples the same transactions, which is what lets chaos invariants
// reconcile journeys against delivery logs.
//
// Clock safety: a transaction only ever rides its origin node's own
// proposal (the mempool is per-node), so the whole journey is
// observable on one node with one Context clock. The gateway hub runs
// on a different clock domain (wall time vs the replica loop's
// virtual clock under emulation); it therefore contributes only
// self-measured durations (admit wait, proof ingest), never
// timestamps.
package txtrace

import (
	"math"
	"sync"
	"time"

	"dledger/internal/mempool"
	"dledger/internal/telemetry"
)

// Phase identifies one segment of a transaction's journey, in
// pipeline order.
type Phase uint8

// Transaction journey phases, in pipeline order.
const (
	// PhaseAdmitWait: gateway admission (rate check, dedup, interest
	// registration, handoff into the replica loop). Hub-measured
	// duration; absent when txs bypass the gateway.
	PhaseAdmitWait Phase = iota
	// PhaseMempoolWait: mempool enqueue → popped into a proposal. The
	// queueing delay this PR exists to expose.
	PhaseMempoolWait
	// PhaseDisperse: proposal → own VID dispersal complete.
	PhaseDisperse
	// PhaseBA: dispersal complete → all N BA instances decided.
	PhaseBA
	// PhaseRetrieve: BA decide → containing block delivered locally.
	PhaseRetrieve
	// PhaseDeliver: block delivered → whole epoch delivered in order.
	PhaseDeliver
	// PhaseProof: proof-stream ingest of the delivered epoch
	// (hub-measured duration; absent without a gateway).
	PhaseProof
	// NumPhases is the number of journey phases.
	NumPhases
)

// phaseNames indexes Phase -> the metric label / exposition name.
var phaseNames = [NumPhases]string{
	"admit_wait", "mempool_wait", "disperse", "ba", "retrieve", "deliver", "proof",
}

// String returns the phase's exposition label.
func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return "unknown"
}

// MetricName is the histogram family journeys observe phase durations
// into, labelled phase="...".
const MetricName = "dl_tx_phase_seconds"

// Journey is one sampled transaction's recorded trip. Timestamps
// (Enqueued, Proposed, Delivered, Done) are the origin replica's
// Context clock; AdmitWait and ProofWait are hub-measured durations.
type Journey struct {
	// Hash is the transaction's sha256 content hash.
	Hash mempool.Hash
	// Epoch is the epoch whose proposal included the tx (0 until
	// proposed).
	Epoch uint64
	// Enqueued is when the tx entered the mempool.
	Enqueued time.Duration
	// Proposed is when the tx was popped into an epoch proposal (the
	// latest attempt: under HB a dropped proposal re-proposes).
	Proposed time.Duration
	// Delivered is when the containing block delivered locally.
	Delivered time.Duration
	// Done is when the whole epoch delivered (commit point).
	Done time.Duration
	// AdmitWait is the hub-measured gateway admission duration.
	AdmitWait time.Duration
	// ProofWait is the hub-measured proof-stream ingest duration of
	// the delivered epoch.
	ProofWait time.Duration
	// Proposals counts proposal inclusions (>1 = re-proposed).
	Proposals int
	// HasAdmit/HasProof/HasDelivered report which optional
	// observations arrived.
	HasAdmit, HasProof, HasDelivered bool
	// Complete reports the journey finalized (epoch delivered);
	// Phases is valid only then.
	Complete bool
	// Phases holds the finalized per-phase durations.
	Phases [NumPhases]time.Duration
}

// PhaseSum returns the sum of the finalized phase durations — by
// construction this telescopes to (Done − Enqueued) + AdmitWait +
// ProofWait, so it reconciles with client-observed commit latency.
func (j *Journey) PhaseSum() time.Duration {
	var s time.Duration
	for _, d := range j.Phases {
		s += d
	}
	return s
}

// Options configures a Journeys collector.
type Options struct {
	// SampleEvery samples 1 in N transactions by content hash; it
	// must be a power of two in [1, 256]. 0 picks the default of 64.
	SampleEvery int
	// Ring is the number of completed journeys retained (0 = 1024).
	Ring int
	// MaxLive bounds in-progress journeys; beyond it the oldest is
	// evicted (0 = 4096).
	MaxLive int
}

// Journeys collects sampled transaction journeys for one node. Hooks
// are called from the replica loop and the gateway hub; a mutex
// serializes them. A nil *Journeys no-ops on every method, so
// instrumented code needs no enabled/disabled branches.
type Journeys struct {
	mask    byte
	maxLive int

	mu      sync.Mutex
	live    map[mempool.Hash]*Journey
	order   []mempool.Hash // live insertion order, for eviction
	byEpoch map[uint64][]mempool.Hash
	ring    []Journey
	next    int
	full    bool

	trace  *telemetry.Tracer
	flight *telemetry.FlightRecorder

	hist      [NumPhases]*telemetry.Histogram
	sampled   *telemetry.Counter
	completed *telemetry.Counter
	liveGauge *telemetry.Gauge
}

// phaseBounds: 1ms .. ~131s at factor √2 — twice the resolution of the
// epoch stage histograms, because the operator-facing reconciliation
// (phase p50 sum vs client-observed commit latency) is only as tight
// as the quantile interpolation. The scan runs once per sampled
// journey at finalize, so the extra bounds cost nothing on the hot
// path.
var phaseBounds = telemetry.ExpBuckets(int64(time.Millisecond), math.Sqrt2, 35)

// New builds a journey collector registered against m's registry and
// joined to its epoch tracer and flight recorder. Returns nil (a
// valid no-op collector) when m is nil.
func New(m *telemetry.Metrics, opts Options) *Journeys {
	if m == nil {
		return nil
	}
	every := opts.SampleEvery
	if every == 0 {
		every = 64
	}
	if every < 1 || every > 256 || every&(every-1) != 0 {
		every = 64
	}
	ring := opts.Ring
	if ring <= 0 {
		ring = 1024
	}
	maxLive := opts.MaxLive
	if maxLive <= 0 {
		maxLive = 4096
	}
	j := &Journeys{
		mask:    byte(every - 1),
		maxLive: maxLive,
		live:    map[mempool.Hash]*Journey{},
		byEpoch: map[uint64][]mempool.Hash{},
		ring:    make([]Journey, ring),
		trace:   m.Trace(),
		flight:  m.Flight(),
	}
	reg := m.Registry()
	const help = "Per-transaction journey phase durations (sampled)."
	for p := Phase(0); p < NumPhases; p++ {
		j.hist[p] = reg.Histogram(MetricName, `phase="`+phaseNames[p]+`"`, help, phaseBounds, 1e-9)
	}
	j.sampled = reg.Counter("dl_tx_journeys_sampled_total", "", "Transactions sampled into journey tracing.")
	j.completed = reg.Counter("dl_tx_journeys_completed_total", "", "Sampled journeys finalized at epoch delivery.")
	j.liveGauge = reg.Gauge("dl_tx_journeys_live", "", "Sampled journeys in progress.")
	return j
}

// Sampled reports whether a transaction with content hash h is
// journey-sampled. Deterministic: every node and every replay samples
// the same transactions. Allocation-free.
func (j *Journeys) Sampled(h mempool.Hash) bool {
	return j != nil && h[0]&j.mask == 0
}

// Submitted records the transaction with content hash h entering the
// mempool at Context-clock time now. Unsampled transactions cost a mask
// test, no allocation, no lock.
func (j *Journeys) Submitted(h mempool.Hash, now time.Duration) {
	if j == nil {
		return
	}
	if h[0]&j.mask != 0 {
		return
	}
	j.mu.Lock()
	if _, ok := j.live[h]; ok { // resubmit of a live sampled tx
		j.mu.Unlock()
		return
	}
	if len(j.live) >= j.maxLive {
		j.evictOldestLocked()
	}
	if len(j.order) >= 2*j.maxLive {
		j.compactOrderLocked()
	}
	j.live[h] = &Journey{Hash: h, Enqueued: now}
	j.order = append(j.order, h)
	n := len(j.live)
	j.mu.Unlock()
	j.sampled.Inc()
	j.liveGauge.Set(int64(n))
	j.flight.Record(now, telemetry.FlightTxPhase, 0, -1, txArg(h, telemetry.TxCheckpointEnqueued))
}

// evictOldestLocked drops the oldest live journey. Caller holds j.mu.
func (j *Journeys) evictOldestLocked() {
	for len(j.order) > 0 {
		h := j.order[0]
		j.order = j.order[1:]
		jr, ok := j.live[h]
		if !ok {
			continue // already finalized
		}
		delete(j.live, h)
		if jr.Epoch != 0 || jr.Proposals > 0 {
			j.dropFromEpochLocked(jr.Epoch, h)
		}
		return
	}
}

// compactOrderLocked drops finalized/evicted entries from the
// insertion-order list (it accumulates stale hashes as journeys
// complete). Caller holds j.mu.
func (j *Journeys) compactOrderLocked() {
	kept := j.order[:0]
	for _, h := range j.order {
		if _, ok := j.live[h]; ok {
			kept = append(kept, h)
		}
	}
	j.order = kept
}

// dropFromEpochLocked removes h from byEpoch[epoch]. Caller holds j.mu.
func (j *Journeys) dropFromEpochLocked(epoch uint64, h mempool.Hash) {
	hs := j.byEpoch[epoch]
	for i := range hs {
		if hs[i] == h {
			j.byEpoch[epoch] = append(hs[:i], hs[i+1:]...)
			break
		}
	}
	if len(j.byEpoch[epoch]) == 0 {
		delete(j.byEpoch, epoch)
	}
}

// AdmitObserved attaches the hub-measured gateway admission duration
// to h's journey (called after the replica accepted the tx).
func (j *Journeys) AdmitObserved(h mempool.Hash, wait time.Duration) {
	if j == nil || h[0]&j.mask != 0 {
		return
	}
	j.mu.Lock()
	if jr, ok := j.live[h]; ok {
		jr.AdmitWait, jr.HasAdmit = wait, true
	}
	j.mu.Unlock()
}

// ProposedBatch records the transactions of a freshly made proposal
// for epoch at Context-clock time now. Re-proposal of a sampled tx
// (HB drops its block) moves the journey to the new epoch; phase
// histograms only see the final, delivered attempt.
func (j *Journeys) ProposedBatch(txs [][]byte, epoch uint64, now time.Duration) {
	if j == nil || len(txs) == 0 {
		return
	}
	for _, tx := range txs {
		h := mempool.HashTx(tx)
		if h[0]&j.mask != 0 {
			continue
		}
		j.mu.Lock()
		jr, ok := j.live[h]
		if !ok {
			j.mu.Unlock()
			continue
		}
		if jr.Proposals > 0 {
			j.dropFromEpochLocked(jr.Epoch, h)
		}
		jr.Epoch, jr.Proposed = epoch, now
		jr.Proposals++
		j.byEpoch[epoch] = append(j.byEpoch[epoch], h)
		j.mu.Unlock()
		j.flight.Record(now, telemetry.FlightTxPhase, epoch, -1, txArg(h, telemetry.TxCheckpointProposed))
	}
}

// DeliveredHashes records the local delivery of a block containing
// the (pre-hashed) transactions at Context-clock time now. Only the
// origin node calls this for its own block — foreign blocks carry
// other nodes' transactions.
func (j *Journeys) DeliveredHashes(hashes []mempool.Hash, now time.Duration) {
	if j == nil {
		return
	}
	for _, h := range hashes {
		if h[0]&j.mask != 0 {
			continue
		}
		j.deliveredOne(h, now)
	}
}

// DeliveredTxs is DeliveredHashes for raw transactions (hashes them).
func (j *Journeys) DeliveredTxs(txs [][]byte, now time.Duration) {
	if j == nil {
		return
	}
	for _, tx := range txs {
		h := mempool.HashTx(tx)
		if h[0]&j.mask != 0 {
			continue
		}
		j.deliveredOne(h, now)
	}
}

func (j *Journeys) deliveredOne(h mempool.Hash, now time.Duration) {
	j.mu.Lock()
	jr, ok := j.live[h]
	if !ok || jr.HasDelivered {
		j.mu.Unlock()
		return
	}
	jr.Delivered, jr.HasDelivered = now, true
	epoch := jr.Epoch
	j.mu.Unlock()
	j.flight.Record(now, telemetry.FlightTxPhase, epoch, -1, txArg(h, telemetry.TxCheckpointDelivered))
}

// Proof attaches the hub-measured proof-stream ingest duration to h's
// journey. Called between block delivery and epoch finalization (the
// hub's OnDeliver runs synchronously from the replica's delivery
// path), so the duration lands before the journey completes.
func (j *Journeys) Proof(h mempool.Hash, wait time.Duration) {
	if j == nil || h[0]&j.mask != 0 {
		return
	}
	j.mu.Lock()
	if jr, ok := j.live[h]; ok {
		jr.ProofWait, jr.HasProof = wait, true
	}
	j.mu.Unlock()
}

// EpochDelivered finalizes every journey proposed in epoch at
// Context-clock time now: the epoch segment is joined against the
// epoch tracer's (still inflight) timeline, phase durations are
// computed via clamped telescoping checkpoints, histograms observed,
// and the journeys move to the completed ring. Must be called BEFORE
// the tracer's own StageDeliver observation retires the timeline.
func (j *Journeys) EpochDelivered(epoch uint64, now time.Duration) {
	if j == nil {
		return
	}
	j.mu.Lock()
	hs := j.byEpoch[epoch]
	if len(hs) == 0 {
		j.mu.Unlock()
		return
	}
	delete(j.byEpoch, epoch)
	tl, haveTL := telemetry.Timeline{}, false
	if j.trace != nil {
		tl, haveTL = j.trace.Inflight(epoch)
	}
	done := make([]Journey, 0, len(hs))
	for _, h := range hs {
		jr, ok := j.live[h]
		if !ok {
			continue
		}
		delete(j.live, h)
		finalize(jr, &tl, haveTL, now)
		j.ring[j.next] = *jr
		j.next++
		if j.next == len(j.ring) {
			j.next, j.full = 0, true
		}
		done = append(done, *jr)
	}
	n := len(j.live)
	j.mu.Unlock()
	j.liveGauge.Set(int64(n))
	// Histograms are atomic; observe outside the lock.
	for i := range done {
		jr := &done[i]
		j.hist[PhaseMempoolWait].Observe(int64(jr.Phases[PhaseMempoolWait]))
		j.hist[PhaseDisperse].Observe(int64(jr.Phases[PhaseDisperse]))
		j.hist[PhaseBA].Observe(int64(jr.Phases[PhaseBA]))
		j.hist[PhaseRetrieve].Observe(int64(jr.Phases[PhaseRetrieve]))
		j.hist[PhaseDeliver].Observe(int64(jr.Phases[PhaseDeliver]))
		if jr.HasAdmit {
			j.hist[PhaseAdmitWait].Observe(int64(jr.Phases[PhaseAdmitWait]))
		}
		if jr.HasProof {
			j.hist[PhaseProof].Observe(int64(jr.Phases[PhaseProof]))
		}
		j.completed.Inc()
		j.flight.Record(now, telemetry.FlightTxPhase, epoch, -1, txArg(jr.Hash, telemetry.TxCheckpointCommitted))
	}
}

// finalize computes jr's phase durations from clamped telescoping
// checkpoints: each checkpoint is at least its predecessor, so every
// phase is non-negative and the mempool→deliver phases sum exactly to
// Done − Enqueued.
func finalize(jr *Journey, tl *telemetry.Timeline, haveTL bool, now time.Duration) {
	c0 := jr.Proposed
	if jr.Proposals == 0 { // delivered without an observed proposal
		c0 = jr.Enqueued
		jr.Proposed = c0
	}
	if c0 < jr.Enqueued {
		c0 = jr.Enqueued
	}
	c1 := c0
	if haveTL && tl.Has(telemetry.StageDisperseDone) && tl.At(telemetry.StageDisperseDone) > c1 {
		c1 = tl.At(telemetry.StageDisperseDone)
	}
	c2 := c1
	if haveTL && tl.Has(telemetry.StageBADecide) && tl.At(telemetry.StageBADecide) > c2 {
		c2 = tl.At(telemetry.StageBADecide)
	}
	c3 := c2
	if jr.HasDelivered && jr.Delivered > c3 {
		c3 = jr.Delivered
	}
	c4 := now
	if c4 < c3 {
		c4 = c3
	}
	jr.Done = c4
	jr.Phases[PhaseMempoolWait] = c0 - jr.Enqueued
	jr.Phases[PhaseDisperse] = c1 - c0
	jr.Phases[PhaseBA] = c2 - c1
	jr.Phases[PhaseRetrieve] = c3 - c2
	jr.Phases[PhaseDeliver] = c4 - c3
	if jr.HasAdmit {
		jr.Phases[PhaseAdmitWait] = jr.AdmitWait
	}
	if jr.HasProof {
		jr.Phases[PhaseProof] = jr.ProofWait
	}
	jr.Complete = true
}

// Live returns copies of the in-progress journeys, oldest first.
func (j *Journeys) Live() []Journey {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Journey, 0, len(j.live))
	for _, h := range j.order {
		if jr, ok := j.live[h]; ok {
			out = append(out, *jr)
		}
	}
	return out
}

// Completed returns the retained finalized journeys, oldest first.
func (j *Journeys) Completed() []Journey {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []Journey
	if j.full {
		out = append(out, j.ring[j.next:]...)
	}
	return append(out, j.ring[:j.next]...)
}

// txArg packs a journey flight-recorder arg: first four hash bytes
// <<8 | checkpoint code.
func txArg(h mempool.Hash, checkpoint int64) int64 {
	prefix := uint32(h[0])<<24 | uint32(h[1])<<16 | uint32(h[2])<<8 | uint32(h[3])
	return int64(prefix)<<8 | checkpoint
}
