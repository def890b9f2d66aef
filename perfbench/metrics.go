package main

import "fmt"

// metricDef names one reported metric and its unit. The two tables below
// are the benchmark's contract: BENCHMARK.json lists the same names in the
// same order (metrics_test.go checks it), and every run reports every
// metric of its table — 0 where the layer is not on the workload's path.
type metricDef struct {
	name, unit string
}

// endToEnd are the untraced run's metrics: what a user of the ledger sees.
var endToEnd = []metricDef{
	{"commit_mb_s", "MB/s"},
	{"commit_p50_ms", "ms"},
	{"commit_p99_ms", "ms"},
	{"cpu_s_per_mb", "s/MB"},
	{"commit_ratio", "ratio"},
	{"setup_s", "s"},
	{"max_rss_mb", "MB"},
}

// cpuLayers are the repository modules a CPU profile sample can be
// attributed to, plus "other" (repository packages outside this list),
// "bench" (this benchmark's own load generator and checks) and "runtime"
// (samples with no repository frame at all: GC workers, the scheduler,
// the network poller).
var cpuLayers = []string{
	"gf256", "erasure", "merkle", "avid", "ba", "core", "wire", "transport",
	"bufpool", "store", "mempool", "gateway", "replica", "telemetry",
	"dlclient", "simnet", "other", "bench", "runtime",
}

// txPhases are the dl_tx_phase_seconds phases; stages the
// dl_epoch_stage_seconds segments reported.
var (
	txPhases = []string{"admit_wait", "mempool_wait", "disperse", "ba", "retrieve", "deliver", "proof"}
	stages   = []string{"disperse", "ba", "retrieve"}
)

// replayNames are the single-layer replays run on workload-shaped inputs.
var replayNames = []string{
	"erasure.split", "erasure.reconstruct", "merkle.tree", "merkle.verify",
	"avid.disperse", "wire.block_encode", "wire.block_decode",
	"wire.envelope_decode", "mempool.hashtx", "mempool.push_pop",
	"gateway.commit_verify", "store.append_sync", "ba.round",
	"bufpool.get_release",
}

// perLayer are the traced run's metrics.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	for _, l := range cpuLayers {
		out = append(out, metricDef{"cpu." + l + ".ms_per_mb", "ms/MB"})
	}
	out = append(out,
		metricDef{"cpu.txhash.ms_per_mb", "ms/MB"},
		metricDef{"cpu.eventloop.share", "frac"},
		metricDef{"cpu.profiled_frac", "frac"},
	)
	for _, p := range txPhases {
		out = append(out,
			metricDef{"phase." + p + ".p50_ms", "ms"},
			metricDef{"phase." + p + ".p99_ms", "ms"})
	}
	for _, s := range stages {
		out = append(out, metricDef{"stage." + s + ".p50_ms", "ms"})
	}
	out = append(out,
		metricDef{"queue.mempool_oldest_age_ms", "ms"},
		metricDef{"queue.proposal_fill_pct", "%"},
		metricDef{"queue.retrieval_inflight", "count"},
		metricDef{"queue.ba_inflight", "count"},
		metricDef{"queue.transport_write.max", "count"},
		metricDef{"transport.sent_bytes_per_mb", "MB/MB"},
		metricDef{"transport.sent_frames_per_tx", "count/tx"},
		metricDef{"store.fsync.p50_ms", "ms"},
		metricDef{"store.fsync.p99_ms", "ms"},
		metricDef{"store.fsyncs_per_s", "1/s"},
		metricDef{"client.submit.p50_ms", "ms"},
		metricDef{"client.submit.p99_ms", "ms"},
		metricDef{"client.verify_us", "us"},
		metricDef{"deliver.epochs_per_s", "1/s"},
		metricDef{"deliver.block_kb", "KB"},
		metricDef{"deliver.linked_frac", "frac"},
		metricDef{"gen.late_p99_ms", "ms"},
		metricDef{"go.gc_cpu_frac", "frac"},
		metricDef{"go.gc_pause.p99_ms", "ms"},
		metricDef{"go.alloc_kb_per_tx", "KB/tx"},
		metricDef{"go.allocs_per_tx", "count/tx"},
		metricDef{"telemetry.overhead.cpu_frac", "frac"},
	)
	for _, r := range replayNames {
		out = append(out,
			metricDef{r + ".ns_op", "ns"},
			metricDef{r + ".allocs_op", "count"})
	}
	return out
}

// metricSet collects one run's values by name.
type metricSet map[string]float64

// ordered returns the values of defs in order, failing on a name the run
// did not fill in (a bug in the benchmark, not in the program).
func (m metricSet) ordered(defs []metricDef) ([]float64, error) {
	out := make([]float64, len(defs))
	for i, d := range defs {
		v, ok := m[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[i] = v
	}
	return out, nil
}
