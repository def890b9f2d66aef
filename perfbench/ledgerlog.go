package main

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"sort"
	"sync/atomic"
	"time"
)

// digestSeed keys the per-block log digests; one process-wide seed makes
// the digests of different nodes comparable.
var digestSeed = maphash.MakeSeed()

// txKey identifies a transaction: slot is its generator (the live
// workloads have one, the emulated cluster one per origin node) and seq
// its dense index within that generator.
type txKey struct{ slot, seq int }

// blockRec is one delivered block as one node saw it.
type blockRec struct {
	at      time.Duration // on the workload's clock
	epoch   uint64
	digest  uint64 // over (epoch, proposer, every tx's bytes)
	payload int
	txs     int
	linked  bool
}

// nodeLog records one node's delivered log. It is written by one
// goroutine (or the emulator's single thread) and read after that has
// stopped; delivered is the only field read concurrently.
type nodeLog struct {
	key       func(tx []byte) (txKey, error)
	hash      maphash.Hash
	blocks    []blockRec
	seen      [][]uint8 // [slot][seq] delivery count
	err       error
	delivered atomic.Int64 // transactions delivered so far
}

func newNodeLog(key func(tx []byte) (txKey, error)) *nodeLog {
	l := &nodeLog{key: key}
	l.hash.SetSeed(digestSeed)
	return l
}

// record appends one delivered block.
func (l *nodeLog) record(at time.Duration, epoch uint64, proposer int, txs [][]byte, linked bool) {
	var hdr [16]byte
	binary.BigEndian.PutUint64(hdr[:8], epoch)
	binary.BigEndian.PutUint64(hdr[8:], uint64(proposer))
	l.hash.Reset()
	l.hash.Write(hdr[:])
	payload := 0
	for _, tx := range txs {
		payload += len(tx)
		binary.BigEndian.PutUint64(hdr[:8], uint64(len(tx)))
		l.hash.Write(hdr[:8])
		l.hash.Write(tx)
		k, err := l.key(tx)
		if err != nil {
			if l.err == nil {
				l.err = fmt.Errorf("epoch %d proposer %d: %w", epoch, proposer, err)
			}
			continue
		}
		for len(l.seen) <= k.slot {
			l.seen = append(l.seen, nil)
		}
		s := l.seen[k.slot]
		if k.seq >= len(s) {
			s = append(s, make([]uint8, k.seq+1-len(s)+len(s)/2)...)
			l.seen[k.slot] = s
		}
		if s[k.seq] < 255 {
			s[k.seq]++
		}
	}
	l.blocks = append(l.blocks, blockRec{
		at: at, epoch: epoch, digest: l.hash.Sum64(),
		payload: payload, txs: len(txs), linked: linked,
	})
	l.delivered.Add(int64(len(txs)))
}

// count is how often the node delivered the transaction.
func (l *nodeLog) count(k txKey) int {
	if k.slot >= len(l.seen) || k.seq >= len(l.seen[k.slot]) {
		return 0
	}
	return int(l.seen[k.slot][k.seq])
}

// checkLogs verifies that every node's log parsed, that no node delivered
// a transaction twice, and that all logs agree block by block on their
// common prefix.
func checkLogs(logs []*nodeLog) error {
	common := -1
	for i, l := range logs {
		if l.err != nil {
			return fmt.Errorf("node %d delivered a malformed transaction: %w", i, l.err)
		}
		for slot, s := range l.seen {
			for seq, c := range s {
				if c > 1 {
					return fmt.Errorf("node %d delivered transaction %d/%d %d times", i, slot, seq, c)
				}
			}
		}
		if common < 0 || len(l.blocks) < common {
			common = len(l.blocks)
		}
	}
	for b := 0; b < common; b++ {
		for i := 1; i < len(logs); i++ {
			if logs[i].blocks[b].digest != logs[0].blocks[b].digest {
				return fmt.Errorf("nodes 0 and %d disagree at log position %d (epoch %d vs %d)",
					i, b, logs[0].blocks[b].epoch, logs[i].blocks[b].epoch)
			}
		}
	}
	return nil
}

// deliveryStats summarises one node's blocks delivered in [from, to).
type deliveryStats struct {
	blocks, linked, epochs int
	payload                int64
	txs                    int64
	medianTxs              int
}

func summarize(l *nodeLog, from, to time.Duration) deliveryStats {
	var st deliveryStats
	var counts []int
	lastEpoch, haveEpoch := uint64(0), false
	for _, b := range l.blocks {
		if b.at < from || b.at >= to {
			continue
		}
		st.blocks++
		st.payload += int64(b.payload)
		st.txs += int64(b.txs)
		if b.linked {
			st.linked++
		}
		if !haveEpoch || b.epoch != lastEpoch {
			st.epochs++
			lastEpoch, haveEpoch = b.epoch, true
		}
		if b.txs > 0 {
			counts = append(counts, b.txs)
		}
	}
	if len(counts) > 0 {
		sort.Ints(counts)
		st.medianTxs = counts[len(counts)/2]
	}
	return st
}
