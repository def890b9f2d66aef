package main

import (
	"fmt"
	"time"

	"dledger/internal/telemetry"
)

// Metric families read from the nodes' telemetry registries in traced
// runs. The names are the program's exposition names (see DESIGN.md).
const (
	phaseFamily = "dl_tx_phase_seconds"
	stageFamily = "dl_epoch_stage_seconds"
	fsyncFamily = "dl_wal_fsync_seconds"
)

// histQuantilesMs averages a histogram's quantiles over the nodes that
// observed it, in milliseconds (the registry's raw unit is nanoseconds).
func histQuantilesMs(tels []*telemetry.Metrics, name, labels string, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	nodes := 0
	for _, t := range tels {
		h := t.Registry().FindHistogram(name, labels)
		if h.Count() == 0 {
			continue
		}
		nodes++
		for i, q := range qs {
			out[i] += ms(time.Duration(h.Quantile(q)))
		}
	}
	for i := range out {
		if nodes > 0 {
			out[i] /= float64(nodes)
		}
	}
	return out
}

func histCount(tels []*telemetry.Metrics, name, labels string) uint64 {
	var n uint64
	for _, t := range tels {
		n += t.Registry().FindHistogram(name, labels).Count()
	}
	return n
}

// telemetryMetrics fills the phase, stage and fsync entries of a traced
// run. Histograms cover the measured cluster's whole life; fsyncs is the
// fsync count of the measurement window.
func telemetryMetrics(m metricSet, tels []*telemetry.Metrics, fsyncs uint64, window time.Duration) {
	for _, p := range txPhases {
		q := histQuantilesMs(tels, phaseFamily, `phase="`+p+`"`, 0.50, 0.99)
		m["phase."+p+".p50_ms"] = q[0]
		m["phase."+p+".p99_ms"] = q[1]
	}
	for _, s := range stages {
		m["stage."+s+".p50_ms"] = histQuantilesMs(tels, stageFamily, `stage="`+s+`"`, 0.50)[0]
	}
	q := histQuantilesMs(tels, fsyncFamily, "", 0.50, 0.99)
	m["store.fsync.p50_ms"] = q[0]
	m["store.fsync.p99_ms"] = q[1]
	m["store.fsyncs_per_s"] = float64(fsyncs) / window.Seconds()
}

// transportTotals sums the TCP transport's sent-frame and sent-byte
// counters over all nodes and both traffic classes.
func transportTotals(tels []*telemetry.Metrics) (frames, bytes uint64) {
	for _, t := range tels {
		reg := t.Registry()
		for _, class := range []string{`class="dispersal"`, `class="retrieval"`} {
			frames += reg.Counter("dl_transport_sent_frames_total", class, "").Value()
			bytes += reg.Counter("dl_transport_sent_bytes_total", class, "").Value()
		}
	}
	return frames, bytes
}

// queueSampler reads the nodes' dl_queue_* gauges at a fixed period and
// keeps their running means: mempool age, proposal fill, retrieval and
// agreement backlog averaged over nodes, transport write queue as the
// deepest link. One goroutine samples; fill reads after it has stopped.
type queueSampler struct {
	tels    []*telemetry.Metrics
	samples int
	sums    [5]float64
}

var queueNames = [4]string{
	"dl_queue_mempool_oldest_age_ms", "dl_queue_proposal_fill_pct",
	"dl_queue_retrieval_inflight", "dl_queue_ba_inflight",
}

func (q *queueSampler) sample() {
	var vals [5]float64
	n := len(q.tels)
	for i, t := range q.tels {
		reg := t.Registry()
		for k, name := range queueNames {
			vals[k] += float64(reg.Gauge(name, "", "").Value()) / float64(n)
		}
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			w := float64(reg.Gauge("dl_queue_transport_write", fmt.Sprintf(`peer="%d"`, j), "").Value())
			if w > vals[4] {
				vals[4] = w
			}
		}
	}
	q.samples++
	for k := range vals {
		q.sums[k] += vals[k]
	}
}

// run samples every period until stop is closed.
func (q *queueSampler) run(period time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			q.sample()
		}
	}
}

func (q *queueSampler) fill(m metricSet) {
	names := [5]string{
		"queue.mempool_oldest_age_ms", "queue.proposal_fill_pct",
		"queue.retrieval_inflight", "queue.ba_inflight", "queue.transport_write.max",
	}
	for k, name := range names {
		m[name] = 0
		if q.samples > 0 {
			m[name] = q.sums[k] / float64(q.samples)
		}
	}
}
