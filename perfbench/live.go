package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	dl "dledger"
	"dledger/dlclient"
	"dledger/internal/mempool"
	"dledger/internal/telemetry"
)

// The live cluster: four nodes over loopback TCP in this process, with
// the production settings of a bounded-memory deployment, and one gateway
// connection per core to nodes 0 and 1.
const (
	liveN         = 4
	liveF         = 1
	liveConns     = 2
	liveRetain    = 64
	liveWarmup    = 3 * time.Second
	commitTimeout = 30 * time.Second // per transaction, closed loop
	drainTimeout  = 30 * time.Second // open-loop commits after the window
	catchUp       = 20 * time.Second // every node delivering every commit
)

// liveSpec is one live workload.
type liveSpec struct {
	txSize  int
	durable bool
	// openRate is the open loop's total arrival rate in tx/s; zero selects
	// the closed loop with window submissions in flight per connection.
	openRate float64
	window   int
}

// txGen makes the live workloads' transactions: an 8-byte id followed by
// seeded filler, so every transaction is unique and a delivered one can be
// checked against the bytes that were submitted without keeping them.
type txGen struct {
	size   int
	filler []byte
}

const fillerSpan = 1 << 16

func newTxGen(seed int64, size int) *txGen {
	g := &txGen{size: size, filler: make([]byte, fillerSpan+size)}
	rand.New(rand.NewSource(seed)).Read(g.filler)
	return g
}

func fillerOffset(id uint64) uint64 { return (id * 0x9E3779B1) % fillerSpan }

func (g *txGen) make(id uint64) []byte {
	tx := make([]byte, g.size)
	binary.BigEndian.PutUint64(tx, id)
	copy(tx[8:], g.filler[fillerOffset(id):])
	return tx
}

// key parses and checks a delivered transaction.
func (g *txGen) key(tx []byte) (txKey, error) {
	if len(tx) != g.size {
		return txKey{}, fmt.Errorf("transaction of %d bytes, want %d", len(tx), g.size)
	}
	id := binary.BigEndian.Uint64(tx)
	off := fillerOffset(id)
	if string(tx[8:]) != string(g.filler[off:off+uint64(g.size-8)]) {
		return txKey{}, fmt.Errorf("transaction %d altered", id)
	}
	return txKey{0, int(id)}, nil
}

// outcomes collects what the load generator observed.
type outcomes struct {
	mu          sync.Mutex
	ws, we      time.Time // measurement window
	committed   []uint8   // by id: verified commit received
	nCommitted  int
	attempted   int
	failed      int
	subLen      time.Duration     // one of subWindows parts of the window
	subLat      [][]time.Duration // per part: due/submit to verified commit, started in it
	subBytes    []int64           // per part: payload committed in it
	windowBytes int64
	windowTxs   int64
	submit      []time.Duration // Submit-to-receipt, in window
	verify      []time.Duration // Commit.Verify calls, in window
	late        []time.Duration // open loop: send time minus due time
	badProof    int
}

func (o *outcomes) attempt() {
	o.mu.Lock()
	o.attempted++
	o.mu.Unlock()
}

func (o *outcomes) fail() {
	o.mu.Lock()
	o.failed++
	o.mu.Unlock()
}

// commit records a verified (ok) or failed-verification commit of id.
func (o *outcomes) commit(id uint64, start, at time.Time, size int, verify time.Duration, ok bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if !ok {
		o.badProof++
		o.failed++
		return
	}
	for uint64(len(o.committed)) <= id {
		o.committed = append(o.committed, make([]uint8, len(o.committed)/2+1024)...)
	}
	o.committed[id]++
	o.nCommitted++
	if k, ok := o.part(start); ok {
		o.subLat[k] = append(o.subLat[k], at.Sub(start))
	}
	if k, ok := o.part(at); ok {
		o.subBytes[k] += int64(size)
		o.windowBytes += int64(size)
		o.windowTxs++
		o.verify = append(o.verify, verify)
	}
}

// part returns the part of the window holding t.
func (o *outcomes) part(t time.Time) (int, bool) {
	if t.Before(o.ws) || !t.Before(o.we) {
		return 0, false
	}
	return min(int(t.Sub(o.ws)/o.subLen), subWindows-1), true
}

// liveCluster is one running cluster with its clients and delivery
// drainers.
type liveCluster struct {
	origin  time.Time
	nodes   []*dl.Node
	logs    []*nodeLog
	clients []*dlclient.Client
	dir     string
	stop    chan struct{}
	wg      sync.WaitGroup // drainers and commit consumers
}

// startLive brings up a cluster and waits for its first verified commit,
// returning the set-up time: keys, listeners, data directories, nodes,
// client connections and one committed transaction.
func startLive(spec liveSpec, traced bool, dir string, gen *txGen, ids *atomic.Uint64, onCommit func(dlclient.Commit, time.Time)) (*liveCluster, time.Duration, error) {
	t0 := time.Now()
	c := &liveCluster{origin: t0, stop: make(chan struct{})}
	keys, err := dl.GenerateKeyring(liveN)
	if err != nil {
		return nil, 0, err
	}
	lns := make([]net.Listener, liveN)
	addrs := make([]string, liveN)
	for i := range lns {
		if lns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			for _, ln := range lns[:i] {
				ln.Close()
			}
			return nil, 0, err
		}
		addrs[i] = lns[i].Addr().String()
	}
	if spec.durable {
		c.dir = dir
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, 0, err
		}
	}
	for i := 0; i < liveN; i++ {
		cfg := dl.Config{
			N: liveN, F: liveF, Mode: dl.ModeDL,
			CoinSecret:   []byte("perfbench coin secret"),
			RetainEpochs: liveRetain, StateSync: true,
			Telemetry: traced,
		}
		if spec.durable {
			cfg.DataDir = filepath.Join(dir, fmt.Sprintf("node-%d", i))
		}
		opts := dl.NodeOptions{Config: cfg, Self: i, Addrs: addrs, Listener: lns[i], Keys: keys[i]}
		if i < liveConns {
			opts.ClientAddr = "127.0.0.1:0"
		}
		n, err := dl.NewTCPNode(opts)
		if err != nil {
			for _, ln := range lns[i+1:] {
				ln.Close()
			}
			c.close()
			return nil, 0, fmt.Errorf("start node %d: %w", i, err)
		}
		c.nodes = append(c.nodes, n)
		l := newNodeLog(gen.key)
		c.logs = append(c.logs, l)
		c.wg.Add(1)
		go c.drain(n, l)
	}
	for i := 0; i < liveConns; i++ {
		cl, err := dlclient.Dial(c.nodes[i].ClientAddr(), dlclient.Options{
			Name: fmt.Sprintf("perfbench-%d", i),
			// Room for every commit of a few seconds at the highest rate,
			// so a consumer descheduled for a moment never drops one.
			CommitBuffer:   1 << 16,
			ReceiptTimeout: commitTimeout,
		})
		if err != nil {
			c.close()
			return nil, 0, fmt.Errorf("dial gateway %d: %w", i, err)
		}
		c.clients = append(c.clients, cl)
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			for cm := range cl.Commits() {
				if onCommit != nil {
					onCommit(cm, time.Now())
				}
			}
		}()
	}
	tx := gen.make(ids.Add(1) - 1)
	cm, err := c.clients[0].SubmitAndWait(tx, commitTimeout)
	if err != nil {
		c.close()
		return nil, 0, fmt.Errorf("first commit: %w", err)
	}
	if ok, _ := verifyCommit(cm, tx); !ok {
		c.close()
		return nil, 0, errors.New("first commit: proof does not verify")
	}
	return c, time.Since(t0), nil
}

// drain consumes one node's deliveries for the cluster's lifetime; an
// undrained channel drops blocks and holds their memory.
func (c *liveCluster) drain(n *dl.Node, l *nodeLog) {
	defer c.wg.Done()
	ch := n.Deliveries()
	for {
		select {
		case d := <-ch:
			l.record(time.Since(c.origin), d.Epoch, d.Proposer, d.Txs, d.Linked)
		case <-c.stop:
			return
		}
	}
}

func (c *liveCluster) tels() []*telemetry.Metrics {
	out := make([]*telemetry.Metrics, len(c.nodes))
	for i, n := range c.nodes {
		out[i] = n.Telemetry()
	}
	return out
}

// close stops clients, nodes and drainers and removes the data directory.
func (c *liveCluster) close() {
	for _, cl := range c.clients {
		cl.Close()
	}
	for _, n := range c.nodes {
		n.Close()
	}
	close(c.stop)
	c.wg.Wait()
	if c.dir != "" {
		os.RemoveAll(c.dir)
	}
}

// caughtUp reports whether every node has delivered at least want
// transactions and all have delivered the same number: with the load
// stopped, the logs have converged.
func (c *liveCluster) caughtUp(want int64) bool {
	n := c.logs[0].delivered.Load()
	for _, l := range c.logs {
		if d := l.delivered.Load(); d < want || d != n {
			return false
		}
	}
	return true
}

// checkStats fails on delivery drops and store errors.
func (c *liveCluster) checkStats() error {
	for i, n := range c.nodes {
		st := n.Stats()
		if st.DroppedDeliveries != 0 || st.StoreErrors != 0 {
			return fmt.Errorf("node %d: %d dropped deliveries, %d store errors", i, st.DroppedDeliveries, st.StoreErrors)
		}
	}
	return nil
}

// openTracker matches open-loop receipts to streamed commits. A commit can
// overtake the goroutine that registers its receipt, so each side parks
// what it got for the other.
type openTracker struct {
	mu      sync.Mutex
	out     *outcomes
	pending map[mempool.Hash]openTx
	early   map[mempool.Hash]earlyCommit
}

type openTx struct {
	id  uint64
	due time.Time
	tx  []byte
}

type earlyCommit struct {
	cm dlclient.Commit
	at time.Time
}

func (t *openTracker) register(h mempool.Hash, p openTx) {
	t.mu.Lock()
	e, ok := t.early[h]
	if ok {
		delete(t.early, h)
	} else {
		t.pending[h] = p
	}
	t.mu.Unlock()
	if ok {
		t.finish(p, e.cm, e.at)
	}
}

func (t *openTracker) onCommit(cm dlclient.Commit, at time.Time) {
	t.mu.Lock()
	p, ok := t.pending[cm.TxHash]
	if ok {
		delete(t.pending, cm.TxHash)
	} else {
		t.early[cm.TxHash] = earlyCommit{cm, at}
	}
	t.mu.Unlock()
	if ok {
		t.finish(p, cm, at)
	}
}

func (t *openTracker) finish(p openTx, cm dlclient.Commit, at time.Time) {
	ok, took := verifyCommit(cm, p.tx)
	t.out.commit(p.id, p.due, at, len(p.tx), took, ok)
}

// verifyCommit checks a commit proof against the submitted bytes, timing
// the call. CPU attribution charges everything under it to the benchmark.
//
//go:noinline
func verifyCommit(cm dlclient.Commit, tx []byte) (bool, time.Duration) {
	t0 := time.Now()
	ok := cm.Verify(tx)
	return ok, time.Since(t0)
}

func (t *openTracker) outstanding() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.pending)
}

// runLive runs one live pass: set-up (reps times, keeping the last
// cluster), warm-up, the measurement window, drain and checks.
func runLive(spec liveSpec, cfg passConfig) (*passResult, error) {
	gen := newTxGen(cfg.seed, spec.txSize)
	root := filepath.Join(cfg.scratch, "live")
	res := &passResult{}
	var ids atomic.Uint64
	out := &outcomes{}
	var tracker *openTracker
	var onCommit func(dlclient.Commit, time.Time)
	if spec.openRate > 0 {
		tracker = &openTracker{out: out, pending: map[mempool.Hash]openTx{}, early: map[mempool.Hash]earlyCommit{}}
		onCommit = tracker.onCommit
	}
	var c *liveCluster
	for r := 0; r < cfg.setupReps; r++ {
		if c != nil {
			c.close()
		}
		ids.Store(0)
		var setup time.Duration
		var err error
		c, setup, err = startLive(spec, cfg.traced, filepath.Join(root, fmt.Sprintf("cluster-%d", r)), gen, &ids, onCommit)
		if err != nil {
			return nil, err
		}
		res.setups = append(res.setups, setup)
	}
	defer func() {
		if c != nil {
			c.close()
		}
	}()
	// The set-up transaction is committed and counts for the log checks.
	out.committed = make([]uint8, 1024)
	out.committed[0] = 1
	out.nCommitted = 1
	if tracker != nil {
		tracker.mu.Lock()
		clear(tracker.early)
		tracker.mu.Unlock()
	}

	loadStart := time.Now()
	out.ws = loadStart.Add(liveWarmup)
	out.we = out.ws.Add(cfg.window)
	out.subLen = cfg.window / subWindows
	out.subLat = make([][]time.Duration, subWindows)
	out.subBytes = make([]int64, subWindows)
	var load sync.WaitGroup
	if spec.openRate > 0 {
		startOpenLoop(&load, c, spec, cfg.seed, gen, &ids, out, tracker, loadStart)
	} else {
		startClosedLoop(&load, c, spec, gen, &ids, out)
	}

	var sampler *queueSampler
	samplerStop := make(chan struct{})
	var samplerDone sync.WaitGroup
	time.Sleep(time.Until(out.ws))
	var fsync0, frames0, bytes0, fsyncs, frames, sent uint64
	if cfg.traced {
		tels := c.tels()
		fsync0 = histCount(tels, fsyncFamily, "")
		frames0, bytes0 = transportTotals(tels)
		sampler = &queueSampler{tels: tels}
		samplerDone.Add(1)
		go func() {
			defer samplerDone.Done()
			sampler.run(100*time.Millisecond, samplerStop)
		}()
	}
	w, err := beginWindow(cfg.traced)
	if err != nil {
		return nil, err
	}
	cpus := []time.Duration{processCPU()}
	for k := 1; k <= subWindows; k++ {
		time.Sleep(time.Until(out.ws.Add(time.Duration(k) * out.subLen)))
		cpus = append(cpus, processCPU())
	}
	res.win, err = w.end()
	if err != nil {
		return nil, err
	}
	close(samplerStop)
	samplerDone.Wait()
	if cfg.traced {
		tels := c.tels()
		fsyncs = histCount(tels, fsyncFamily, "") - fsync0
		frames1, bytes1 := transportTotals(tels)
		frames, sent = frames1-frames0, bytes1-bytes0
		res.layer = metricSet{}
		sampler.fill(res.layer)
	}

	// Drain: the load stops at the window's end; wait for every accepted
	// transaction's commit, then for every node to deliver all of them.
	load.Wait()
	if tracker != nil {
		deadline := time.Now().Add(drainTimeout)
		for tracker.outstanding() > 0 && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		out.mu.Lock()
		out.failed += tracker.outstanding()
		out.mu.Unlock()
	}
	out.mu.Lock()
	want := int64(out.nCommitted)
	out.mu.Unlock()
	for deadline := time.Now().Add(catchUp); !c.caughtUp(want) && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
	}
	if err := c.checkStats(); err != nil {
		return nil, err
	}
	if cfg.traced {
		telemetryMetrics(res.layer, c.tels(), fsyncs, cfg.window)
	}
	cl := c
	c = nil
	cl.close()

	if err := checkLogs(cl.logs); err != nil {
		return nil, err
	}
	out.mu.Lock()
	defer out.mu.Unlock()
	if out.badProof > 0 {
		return nil, fmt.Errorf("%d commit proofs did not verify against the submitted bytes", out.badProof)
	}
	for id, n := range out.committed {
		if n == 0 {
			continue
		}
		if n > 1 {
			return nil, fmt.Errorf("transaction %d committed %d times", id, n)
		}
		for i, l := range cl.logs {
			if l.count(txKey{0, id}) != 1 {
				return nil, fmt.Errorf("node %d did not deliver committed transaction %d", i, id)
			}
		}
	}
	res.attempted, res.failed = out.attempted, out.failed
	for k := 0; k < subWindows; k++ {
		res.subs = append(res.subs, subWindow{
			mbps:  float64(out.subBytes[k]) / out.subLen.Seconds() / mb,
			bytes: float64(out.subBytes[k]),
			cpu:   cpus[k+1] - cpus[k],
			lat:   out.subLat[k],
		})
	}
	res.windowBytes = float64(out.windowBytes)
	res.windowTxs = float64(out.windowTxs)
	if cfg.traced {
		res.layer["transport.sent_bytes_per_mb"] = float64(sent) / res.windowBytes
		res.layer["transport.sent_frames_per_tx"] = float64(frames) / res.windowTxs
	}
	res.submit, res.verify, res.late = out.submit, out.verify, out.late
	ds := summarize(cl.logs[0], out.ws.Sub(cl.origin), out.we.Sub(cl.origin))
	res.deliveries = ds
	res.shape = blockShape{n: liveN, f: liveF, txSize: spec.txSize, txs: ds.medianTxs}
	return res, nil
}

// startOpenLoop sends seeded Poisson arrivals on an absolute schedule from
// loadStart to the window's end. Each connection has its own arrival
// process and a pool of senders, so a slow receipt delays only later
// arrivals, and that delay shows as lateness.
func startOpenLoop(wg *sync.WaitGroup, c *liveCluster, spec liveSpec, seed int64, gen *txGen, ids *atomic.Uint64, out *outcomes, t *openTracker, loadStart time.Time) {
	const senders = 256
	rate := spec.openRate / liveConns
	for k, cl := range c.clients {
		type job struct {
			id  uint64
			due time.Time
		}
		// A second of arrivals: the scheduler never blocks on a burst the
		// senders absorb a moment later.
		jobs := make(chan job, int(rate))
		rng := rand.New(rand.NewSource(seed*7919 + int64(k)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(jobs)
			due := loadStart
			for {
				due = due.Add(time.Duration(rng.ExpFloat64() / rate * float64(time.Second)))
				if !due.Before(out.we) {
					return
				}
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				jobs <- job{ids.Add(1) - 1, due}
			}
		}()
		for s := 0; s < senders; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := range jobs {
					tx := gen.make(j.id)
					sent := time.Now()
					rc, err := cl.Submit(tx)
					took := time.Since(sent)
					out.mu.Lock()
					out.attempted++
					out.late = append(out.late, sent.Sub(j.due))
					if !sent.Before(out.ws) && sent.Before(out.we) {
						out.submit = append(out.submit, took)
					}
					if err != nil || rc.Status != dlclient.StatusAccepted {
						out.failed++
						out.mu.Unlock()
						continue
					}
					out.mu.Unlock()
					t.register(rc.TxHash, openTx{id: j.id, due: j.due, tx: tx})
				}
			}()
		}
	}
}

// startClosedLoop keeps spec.window submissions in flight per connection
// until the window's end, each waiting on SubmitAndWait.
func startClosedLoop(wg *sync.WaitGroup, c *liveCluster, spec liveSpec, gen *txGen, ids *atomic.Uint64, out *outcomes) {
	for _, cl := range c.clients {
		for s := 0; s < spec.window; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(out.we) {
					id := ids.Add(1) - 1
					tx := gen.make(id)
					out.attempt()
					start := time.Now()
					cm, err := cl.SubmitAndWait(tx, commitTimeout)
					at := time.Now()
					if err != nil {
						out.fail()
						continue
					}
					ok, took := verifyCommit(cm, tx)
					out.commit(id, start, at, len(tx), took, ok)
				}
			}()
		}
	}
}
