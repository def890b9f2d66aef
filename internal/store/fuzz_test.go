package store

import (
	"bytes"
	"testing"
)

// The store's decoders read bytes from disk and, for chunk records and
// manifests, from state-sync donors. Each target checks that decoding
// never panics and that anything that decodes re-encodes to a stable
// form. Seed corpora live in testdata/fuzz/<target>.

// FuzzDecodeRecord covers the WAL record codec.
func FuzzDecodeRecord(f *testing.F) {
	f.Add([]byte{})
	for _, r := range testRecords() {
		f.Add(EncodeRecord(r))
	}
	f.Add(EncodeRecord(Record{Type: RecBlock, Epoch: 3, Proposer: 1, V: []uint64{1, 2, 3, 4},
		TxHashes: [][32]byte{{1}, {2}}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeRecord(data)
		if err != nil {
			return
		}
		re := EncodeRecord(r)
		r2, err := DecodeRecord(re)
		if err != nil {
			t.Fatalf("re-decode of a decoded record failed: %v", err)
		}
		if !bytes.Equal(EncodeRecord(r2), re) {
			t.Fatal("record encoding not stable across a round trip")
		}
	})
}

// FuzzDecodeChunkRecord covers the chunk-store record codec, which
// state sync also reads from donors.
func FuzzDecodeChunkRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeChunkRecord(testChunk(9, 3)))
	f.Add(EncodeChunkRecord(ChunkRecord{Epoch: 4, Proposer: 1}))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeChunkRecord(data)
		if err != nil {
			return
		}
		re := EncodeChunkRecord(c)
		c2, err := DecodeChunkRecord(re)
		if err != nil {
			t.Fatalf("re-decode of a decoded chunk record failed: %v", err)
		}
		if !bytes.Equal(EncodeChunkRecord(c2), re) {
			t.Fatal("chunk record encoding not stable across a round trip")
		}
	})
}

// FuzzDecodeManifest covers the state-sync manifest codec.
func FuzzDecodeManifest(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeManifest(testManifest()))
	f.Add(EncodeManifest(&Manifest{N: 1, Epoch: 1, LinkedFloor: []uint64{1}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeManifest(data)
		if err != nil {
			return
		}
		re := EncodeManifest(m)
		m2, err := DecodeManifest(re)
		if err != nil {
			t.Fatalf("re-decode of a decoded manifest failed: %v", err)
		}
		if !bytes.Equal(EncodeManifest(m2), re) {
			t.Fatal("manifest encoding not stable across a round trip")
		}
	})
}
