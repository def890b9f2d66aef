package main

import (
	"errors"
	"fmt"
	"time"

	"dledger/internal/core"
	"dledger/internal/harness"
	"dledger/internal/replica"
	"dledger/internal/telemetry"
	"dledger/internal/trace"
	"dledger/internal/workload"
)

// The emulated geo cluster: the sixteen AWS cities of Fig 8 on the virtual
// clock, each with its variable egress trace, at the latency experiments'
// scale, under Poisson load below the backlog knee.
const (
	geoN      = 16
	geoF      = 5
	geoTxSize = 256
	geoLoad   = 2 * mb // paper-equivalent bytes/s, system-wide
	geoWarmup = 6 * time.Second
	geoDrain  = 20 * time.Second
	geoStep   = 100 * time.Millisecond
	geoScale  = harness.LatencyScale
	geoPerSec = 2 // virtual seconds measured per --seconds
	// geoTopology seeds the network: the bandwidth traces and city-pair
	// delays of the fig10 runs at seed 1, where 2 MB/s is below the
	// backlog knee. --seed varies the Poisson arrivals only. Other
	// topology seeds leave some city's bandwidth below the load for tens
	// of seconds; that node then lags for the rest of a run (DL lets slow
	// nodes fall behind without holding the others back), and the run
	// would measure that realization rather than the ledger.
	geoTopology = 1
)

// geoDelay is the seeded 40–140 ms one-way city-pair delay of the
// harness's geo experiments (same derivation, so a seed reproduces the
// fig10 topology).
func geoDelay(n int, seed int64) func(from, to int) time.Duration {
	d := make([][]time.Duration, n)
	x := uint64(seed) ^ 0x9e3779b97f4a7c15
	next := func() uint64 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range d {
		d[i] = make([]time.Duration, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d[i][j] = time.Duration(40+next()%101) * time.Millisecond
			d[j][i] = d[i][j]
		}
	}
	return func(from, to int) time.Duration { return d[from][to] }
}

func geoKey(tx []byte) (txKey, error) {
	if len(tx) != geoTxSize {
		return txKey{}, fmt.Errorf("transaction of %d bytes, want %d", len(tx), geoTxSize)
	}
	t, err := workload.Parse(tx)
	if err != nil {
		return txKey{}, err
	}
	return txKey{t.Origin, int(t.Seq)}, nil
}

// geoRun is one emulated cluster with its observers.
type geoRun struct {
	c      *harness.Cluster
	logs   []*nodeLog
	ws, we time.Duration
	lat    [][]time.Duration // per node: local transactions submitted in the window
}

func newGeoRun(cfg passConfig, horizon time.Duration, measure time.Duration) (*geoRun, error) {
	c, err := harness.NewCluster(harness.ClusterOptions{
		Core:        core.Config{N: geoN, F: geoF, Mode: core.ModeDL},
		Replica:     harness.ScaledReplicaParams(geoScale),
		Egress:      trace.CityTraces(trace.AWSCities, geoScale, int(horizon/time.Second)+2, time.Second, geoTopology),
		Delay:       geoDelay(geoN, geoTopology),
		TxSize:      geoTxSize,
		LoadPerNode: geoLoad / geoN * geoScale,
		Telemetry:   cfg.traced,
		Seed:        cfg.seed, // the arrivals
	})
	if err != nil {
		return nil, err
	}
	g := &geoRun{c: c, ws: geoWarmup, we: geoWarmup + measure, lat: make([][]time.Duration, geoN)}
	for i := 0; i < geoN; i++ {
		l := newNodeLog(geoKey)
		g.logs = append(g.logs, l)
		c.SetDeliverHook(i, func(d replica.Delivery) {
			l.record(d.At, d.Epoch, d.Proposer, d.Txs, d.Linked)
			for _, tx := range d.Txs {
				t, err := workload.Parse(tx)
				if err == nil && t.Origin == i && t.Submitted >= g.ws && t.Submitted < g.we {
					g.lat[i] = append(g.lat[i], d.At-t.Submitted)
				}
			}
		})
	}
	return g, nil
}

// delivered reports whether any node has delivered a transaction.
func (g *geoRun) delivered() bool {
	for _, l := range g.logs {
		if l.delivered.Load() > 0 {
			return true
		}
	}
	return false
}

// missing counts transactions submitted through limit[origin] that some
// node has not delivered.
func (g *geoRun) missing(limit []int) int {
	n := 0
	for origin, last := range limit {
		for seq := 1; seq <= last; seq++ {
			for _, l := range g.logs {
				if l.count(txKey{origin, seq}) != 1 {
					n++
					break
				}
			}
		}
	}
	return n
}

// runGeo runs one emulated pass. Latency and throughput are on the
// virtual clock; CPU and set-up time are the host's.
func runGeo(cfg passConfig) (*passResult, error) {
	measure := geoPerSec * cfg.window
	horizon := geoWarmup + measure + geoDrain
	res := &passResult{}
	var g *geoRun
	for r := 0; r < cfg.setupReps; r++ {
		t0 := time.Now()
		var err error
		if g, err = newGeoRun(cfg, horizon, measure); err != nil {
			return nil, err
		}
		g.c.Start()
		for !g.delivered() {
			if g.c.Sim.Now() > geoWarmup {
				return nil, errors.New("no block delivered during the warm-up")
			}
			g.c.Run(g.c.Sim.Now() + 10*time.Millisecond)
		}
		res.setups = append(res.setups, time.Since(t0))
	}
	c := g.c
	c.Run(g.ws)

	var tels []*telemetry.Metrics
	var sampler *queueSampler
	var sent0 int64
	if cfg.traced {
		tels = c.Tels
		sampler = &queueSampler{tels: tels}
	}
	sent := func() int64 {
		var s int64
		for i := 0; i < geoN; i++ {
			d, r := c.Net.BytesSent(i)
			s += d + r
		}
		return s
	}
	sent0 = sent()
	w, err := beginWindow(cfg.traced)
	if err != nil {
		return nil, err
	}
	subLen := measure / subWindows
	cpus := []time.Duration{processCPU()}
	for t := g.ws + geoStep; t <= g.we; t += geoStep {
		c.Run(t)
		if sampler != nil {
			sampler.sample()
		}
		if (t-g.ws)%subLen == 0 {
			cpus = append(cpus, processCPU())
		}
	}
	if res.win, err = w.end(); err != nil {
		return nil, err
	}
	sent1 := sent()
	limit := make([]int, geoN)
	for i, r := range c.Replicas {
		limit[i] = int(r.Stats.Submitted)
		res.attempted += limit[i]
	}
	for t := g.we + time.Second; t <= horizon && g.missing(limit) > 0; t += time.Second {
		c.Run(t)
	}
	res.failed = g.missing(limit)
	if err := checkLogs(g.logs); err != nil {
		return nil, err
	}

	for k := 0; k < subWindows; k++ {
		from := g.ws + time.Duration(k)*subLen
		var part float64
		for _, l := range g.logs {
			part += float64(summarize(l, from, from+subLen).payload) / geoN
		}
		res.subs = append(res.subs, subWindow{
			// Paper-equivalent system-wide rate: every node commits every
			// transaction, and the emulation runs at geoScale of paper
			// bandwidth.
			mbps:  part / subLen.Seconds() / geoScale / mb,
			bytes: part,
			cpu:   cpus[k+1] - cpus[k],
		})
	}
	var payload, txs float64
	var p50, p99 time.Duration
	for i, l := range g.logs {
		ds := summarize(l, g.ws, g.we)
		payload += float64(ds.payload) / geoN
		txs += float64(ds.txs) / geoN
		p50 += quantile(g.lat[i], 0.50) / geoN
		p99 += quantile(g.lat[i], 0.99) / geoN
		res.samples += len(g.lat[i])
		if i == 0 {
			res.deliveries = ds
		}
	}
	res.windowBytes, res.windowTxs = payload, txs
	res.p50ms, res.p99ms = ms(p50), ms(p99)
	res.virtualWindow = measure
	res.shape = blockShape{n: geoN, f: geoF, txSize: geoTxSize, txs: res.deliveries.medianTxs}
	if cfg.traced {
		res.layer = metricSet{}
		sampler.fill(res.layer)
		res.layer["transport.sent_bytes_per_mb"] = float64(sent1-sent0) / payload
		res.layer["transport.sent_frames_per_tx"] = 0 // the emulator counts bytes, not frames
		telemetryMetrics(res.layer, tels, 0, measure)
	}
	return res, nil
}
