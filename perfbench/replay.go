package main

import (
	"flag"
	"fmt"
	"math/bits"
	"math/rand"
	"os"
	"testing"

	"dledger/internal/avid"
	"dledger/internal/ba"
	"dledger/internal/bufpool"
	"dledger/internal/coin"
	"dledger/internal/erasure"
	"dledger/internal/gateway"
	"dledger/internal/mempool"
	"dledger/internal/merkle"
	"dledger/internal/store"
	"dledger/internal/wire"
)

// blockShape is a workload's typical block: cluster size and the run's
// median transactions per delivered block.
type blockShape struct {
	n, f   int
	txSize int
	txs    int
}

// replayTxs rounds the median block to a power of two of transactions, so
// that replay inputs, and with them allocs/op, repeat from run to run.
func (s blockShape) replayTxs() int {
	if s.txs <= 1 {
		return 1
	}
	lo := 1 << (bits.Len(uint(s.txs)) - 1)
	if s.txs-lo > 2*lo-s.txs {
		return 2 * lo
	}
	return lo
}

// replayBenchtime is each replay's measuring time; testing.Benchmark
// picks the iteration count.
const replayBenchtime = "300ms"

var sink any

// runReplays times each layer's public entry points on inputs shaped like
// the workload's blocks, one testing.Benchmark per replay. dir is a
// scratch directory for the store replay.
func runReplays(shape blockShape, dir string) (metricSet, error) {
	testing.Init()
	if err := flag.CommandLine.Set("test.benchtime", replayBenchtime); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(1))
	txs := make([][]byte, shape.replayTxs())
	for i := range txs {
		txs[i] = make([]byte, shape.txSize)
		rng.Read(txs[i])
	}
	block := &wire.Block{Proposer: 1, Epoch: 1000, V: make([]uint64, shape.n), Txs: txs}
	enc := block.Encode()

	params, err := avid.NewParams(shape.n, shape.f)
	if err != nil {
		return nil, err
	}
	coder, err := erasure.New(params.K(), shape.n)
	if err != nil {
		return nil, err
	}
	shards, err := coder.Split(enc)
	if err != nil {
		return nil, err
	}
	tree := merkle.NewTree(shards)
	proof, err := tree.Prove(1)
	if err != nil {
		return nil, err
	}
	chunks, _, err := avid.Disperse(params, enc)
	if err != nil {
		return nil, err
	}
	envelope := wire.Envelope{From: 1, Epoch: 1000, Proposer: 1, Payload: chunks[1]}.Encode()

	hashes := make([][]byte, len(txs))
	for i, tx := range txs {
		h := mempool.HashTx(tx)
		hashes[i] = h[:]
	}
	idx := len(txs) / 2
	txTree := merkle.NewTree(hashes)
	txProof, err := txTree.Prove(idx)
	if err != nil {
		return nil, err
	}
	commit := gateway.Commit{
		TxHash: mempool.HashTx(txs[idx]), Epoch: 1000, Proposer: 1,
		Index: idx, Count: len(txs), Root: txTree.Root(), Path: txProof.Path,
	}
	if !commit.Verify(txs[idx]) {
		return nil, fmt.Errorf("replay: constructed commit proof does not verify")
	}

	storeDir, err := os.MkdirTemp(dir, "replay-store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(storeDir)
	fs, err := store.OpenFile(store.FileOptions{Dir: storeDir})
	if err != nil {
		return nil, err
	}
	defer fs.Close()
	txHashes := make([][32]byte, len(txs))
	for i, tx := range txs {
		txHashes[i] = mempool.HashTx(tx)
	}
	rec := store.Record{
		Type: store.RecBlock, Proposer: 1, TxCount: uint32(len(txs)),
		Payload: uint32(block.PayloadBytes()), V: block.V, TxHashes: txHashes,
	}

	var replayErr error
	fail := func(err error) {
		if err != nil && replayErr == nil {
			replayErr = err
		}
	}
	replays := map[string]func(b *testing.B){
		"erasure.split": func(b *testing.B) {
			var s erasure.Scratch
			for b.Loop() {
				out, err := coder.SplitInto(enc, &s)
				fail(err)
				sink = out
			}
		},
		"erasure.reconstruct": func(b *testing.B) {
			in := make([][]byte, len(shards))
			for b.Loop() {
				copy(in, shards)
				// Losing data shards forces the parity path.
				for i := 0; i < shape.n-params.K(); i++ {
					in[i] = nil
				}
				out, err := coder.Reconstruct(in)
				fail(err)
				sink = out
			}
		},
		"merkle.tree": func(b *testing.B) {
			for b.Loop() {
				sink = merkle.NewTree(shards)
			}
		},
		"merkle.verify": func(b *testing.B) {
			for b.Loop() {
				if !merkle.Verify(tree.Root(), shards[1], proof) {
					fail(fmt.Errorf("replay: merkle proof does not verify"))
				}
			}
		},
		"avid.disperse": func(b *testing.B) {
			for b.Loop() {
				out, _, err := avid.Disperse(params, enc)
				fail(err)
				sink = out
			}
		},
		"wire.block_encode": func(b *testing.B) {
			for b.Loop() {
				sink = block.Encode()
			}
		},
		"wire.block_decode": func(b *testing.B) {
			for b.Loop() {
				out, err := wire.DecodeBlock(enc)
				fail(err)
				sink = out
			}
		},
		"wire.envelope_decode": func(b *testing.B) {
			for b.Loop() {
				out, err := wire.Decode(envelope)
				fail(err)
				sink = out
			}
		},
		"mempool.hashtx": func(b *testing.B) {
			for b.Loop() {
				sink = mempool.HashTx(txs[0])
			}
		},
		"mempool.push_pop": func(b *testing.B) {
			for b.Loop() {
				p := mempool.New()
				for _, tx := range txs {
					fail(p.PushFrom(1, tx))
				}
				sink = p.PopBatch(len(enc))
			}
		},
		"gateway.commit_verify": func(b *testing.B) {
			for b.Loop() {
				if !commit.Verify(txs[idx]) {
					fail(fmt.Errorf("replay: commit proof does not verify"))
				}
			}
		},
		"store.append_sync": func(b *testing.B) {
			for b.Loop() {
				rec.Epoch++
				_, err := fs.AppendBatch([]store.Record{rec})
				fail(err)
				fail(fs.Sync())
			}
		},
		"ba.round": func(b *testing.B) {
			scheme := coin.NewScheme([]byte("perfbench"))
			var epoch uint64
			for b.Loop() {
				epoch++
				sink = baRound(shape.n, shape.f, scheme, epoch)
			}
		},
		"bufpool.get_release": func(b *testing.B) {
			for b.Loop() {
				buf := bufpool.Get(len(shards[0]))
				buf.Release()
			}
		},
	}
	out := metricSet{}
	for _, name := range replayNames {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			replays[name](b)
		})
		if r.N == 0 {
			return nil, fmt.Errorf("replay %s did not run", name)
		}
		out[name+".ns_op"] = float64(r.NsPerOp())
		out[name+".allocs_op"] = float64(r.AllocsPerOp())
	}
	return out, replayErr
}

// baRound runs one binary agreement among n correct nodes, every input
// true, delivering messages in FIFO order until all have decided.
func baRound(n, f int, scheme *coin.Scheme, epoch uint64) bool {
	type msg struct {
		from, to int
		m        wire.Msg
	}
	nodes := make([]*ba.BA, n)
	for i := range nodes {
		nodes[i] = ba.New(n, f, scheme.ForInstance(epoch, 0))
	}
	var queue []msg
	enqueue := func(from int, sends []ba.Send) {
		for _, s := range sends {
			for to := range nodes {
				queue = append(queue, msg{from, to, s.Msg})
			}
		}
	}
	for i, node := range nodes {
		enqueue(i, node.Input(true))
	}
	for len(queue) > 0 {
		m := queue[0]
		queue = queue[1:]
		enqueue(m.to, nodes[m.to].Handle(m.from, m.m))
	}
	decided, value := nodes[0].Decided()
	return decided && value
}
