package core

import (
	"bytes"
	"testing"

	"dledger/internal/ba"
)

// FuzzDecodeSnapshot covers the engine snapshot codec: a checkpoint is
// read back from disk, so decoding must fail cleanly on any bytes, and
// what decodes must re-encode stably. The seed corpus lives in
// testdata/fuzz/FuzzDecodeSnapshot.
func FuzzDecodeSnapshot(f *testing.F) {
	f.Add([]byte{})
	f.Add((&Snapshot{}).Encode())
	f.Add((&Snapshot{
		LastProposed: 12, DecidedThrough: 11, DeliveredEpoch: 9, PrunedThrough: 2,
		Watermark:   []uint64{12, 11, 0, 13},
		LinkedFloor: []uint64{9, 9, 8, 9},
		Decided:     []SnapEpoch{{Epoch: 10, S: []int{0, 1, 3}}},
		Blocks:      []SnapBlock{{Epoch: 9, Proposer: 2, V: []uint64{8, 8, 8, 8}}, {Epoch: 10, Bad: true}},
		MyBlocks:    []SnapMyBlock{{Epoch: 12, Block: []byte("block")}},
		Votes: []SnapVotes{
			{Epoch: 12, Proposer: 1, Votes: []ba.Vote{{Round: 0, Value: true}}},
			{Epoch: 12, Proposer: 3, Halted: true},
		},
	}).Encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		re := s.Encode()
		s2, err := DecodeSnapshot(re)
		if err != nil {
			t.Fatalf("re-decode of a decoded snapshot failed: %v", err)
		}
		if !bytes.Equal(s2.Encode(), re) {
			t.Fatal("snapshot encoding not stable across a round trip")
		}
	})
}
