package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"

	"dledger/internal/merkle"
)

func TestAttributeInnermostRepoFrame(t *testing.T) {
	const ms = int64(time.Millisecond)
	loop := eventLoopFrame
	samples := []profSample{
		// SHA-256 under merkle under avid: merkle's, inside the event loop.
		{[]string{"crypto/sha256.block", "crypto/sha256.(*digest).Write",
			"dledger/internal/merkle.HashLeaf", "dledger/internal/avid.Disperse", loop}, 10 * ms},
		// The transaction hash, inlined into the gateway: mempool's, and
		// the cumulative txhash entry.
		{[]string{"crypto/sha256.block", txHashFrame,
			"dledger/internal/gateway.(*Hub).Submit.func1", loop}, 20 * ms},
		// Allocation under the client library.
		{[]string{"runtime.mallocgc", "dledger/dlclient.(*Client).Submit"}, 30 * ms},
		// No repository frame: the runtime's own work.
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, 40 * ms},
		// Sub-packages belong to their layer; other packages to "other".
		{[]string{"dledger/internal/telemetry/txtrace.(*Journeys).Enqueue"}, 50 * ms},
		{[]string{"dledger/internal/statesync.(*Tracker).Note"}, 60 * ms},
		{[]string{"dledger.(*Node).Stats"}, 70 * ms},
		// The benchmark's own code.
		{[]string{"bytes.Equal", "main.(*txGen).key", "main.(*nodeLog).record"}, 80 * ms},
		// Hashing outside mempool.HashTx is not txhash.
		{[]string{"crypto/sha256.block", "dledger/internal/store.(*FileStore).Sync"}, 90 * ms},
		// The benchmark's proof check is the benchmark's, txhash included.
		{[]string{"crypto/sha256.block", txHashFrame, "dledger/internal/gateway.Commit.Verify",
			checkFrame, "main.(*openTracker).finish"}, 100 * ms},
	}
	a := attribute(samples)
	want := map[string]int64{
		"merkle": 10 * ms, "mempool": 20 * ms, "dlclient": 30 * ms, "runtime": 40 * ms,
		"telemetry": 50 * ms, "other": 130 * ms, "bench": 180 * ms, "store": 90 * ms,
	}
	for layer, ns := range want {
		if a.byLayer[layer] != ns {
			t.Errorf("layer %s: %v, want %v", layer, time.Duration(a.byLayer[layer]), time.Duration(ns))
		}
	}
	if len(a.byLayer) != len(want) {
		t.Errorf("layers %v, want exactly %v", a.byLayer, want)
	}
	if a.txHash != 20*ms {
		t.Errorf("txhash %v, want 20ms", time.Duration(a.txHash))
	}
	if a.eventLoop != 30*ms {
		t.Errorf("event loop %v, want 30ms", time.Duration(a.eventLoop))
	}
	if a.total != 550*ms {
		t.Errorf("total %v, want 550ms", time.Duration(a.total))
	}
	for layer := range a.byLayer {
		found := false
		for _, l := range cpuLayers {
			found = found || l == layer
		}
		if !found {
			t.Errorf("layer %q is not reported", layer)
		}
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"dledger/internal/transport.(*TCPNode).readLoop.func1": "dledger/internal/transport",
		"dledger/internal/telemetry/txtrace.New":               "dledger/internal/telemetry/txtrace",
		"dledger.NewTCPNode":                                   "dledger",
		"main.main":                                            "main",
		"runtime.mallocgc":                                     "runtime",
		"crypto/sha256.block":                                  "crypto/sha256",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestParseRealProfile profiles this process while it builds Merkle trees
// and checks the parsed profile charges the work to merkle.
func TestParseRealProfile(t *testing.T) {
	chunks := make([][]byte, 16)
	for i := range chunks {
		chunks[i] = make([]byte, 64<<10)
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	for end := time.Now().Add(400 * time.Millisecond); time.Now().Before(end); {
		sink = merkle.NewTree(chunks)
	}
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	a := attribute(samples)
	if a.total == 0 {
		t.Skip("no CPU samples collected")
	}
	if share := float64(a.byLayer["merkle"]) / float64(a.total); share < 0.5 {
		t.Errorf("merkle share %.2f of %v profiled, want most of it (%v)", share, time.Duration(a.total), a.byLayer)
	}
}

func TestReplayTxsRounding(t *testing.T) {
	for txs, want := range map[int]int{0: 1, 1: 1, 2: 2, 3: 2, 5: 4, 6: 4, 7: 8, 300: 256, 400: 512, 1024: 1024} {
		if got := (blockShape{txs: txs}).replayTxs(); got != want {
			t.Errorf("replayTxs(%d) = %d, want %d", txs, got, want)
		}
	}
}
