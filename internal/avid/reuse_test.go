package avid

import (
	"bytes"
	"math/rand"
	"testing"

	"dledger/internal/merkle"
	"dledger/internal/wire"
)

// kSubsets returns every k-element subset of 0..n-1 in lexicographic
// order.
func kSubsets(n, k int) [][]int {
	var out [][]int
	var rec func(start int, cur []int)
	rec = func(start int, cur []int) {
		if len(cur) == k {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for i := start; i < n; i++ {
			rec(i+1, append(cur, i))
		}
	}
	rec(0, nil)
	return out
}

// retrieveFrom runs a fresh retriever for server self over exactly the
// chunks of subset, in subset order. Its own chunk, when in the subset,
// arrives the way the engine hands it over: with the leaf its server
// computed while verifying the Chunk.
func retrieveFrom(t *testing.T, p Params, self int, chunks []wire.Chunk, subset []int) *Retriever {
	t.Helper()
	r := NewRetriever(p, self)
	r.Start()
	for _, i := range subset {
		c := chunks[i]
		rc := wire.ReturnChunk{Root: c.Root, Data: c.Data, Proof: c.Proof}
		if i == self {
			srv := NewServer(p, self)
			srv.Handle(-1, c)
			leaf, ok := srv.VerifiedLeaf(rc.Data)
			if !ok {
				t.Fatalf("server %d kept no leaf for its verified chunk", self)
			}
			r.HandleOwnChunk(rc, leaf)
		} else {
			r.HandleReturnChunk(i, rc)
		}
	}
	if !r.Done() {
		t.Fatalf("retrieval over subset %v did not finish", subset)
	}
	return r
}

// rawCodeword erasure-codes data shards as given — padding included —
// returning the k data shards followed by their consistent parity.
func rawCodeword(t *testing.T, p Params, data [][]byte) [][]byte {
	t.Helper()
	shards := make([][]byte, p.N)
	copy(shards, data)
	if err := p.Coder.ReconstructShards(shards); err != nil {
		t.Fatal(err)
	}
	return shards
}

// padded returns a block whose length leaves padding at the end of the
// last data shard, and its honest shards.
func padded(t *testing.T, p Params, seed int64) (block []byte, shards [][]byte) {
	t.Helper()
	size := 100*p.K() + 1
	for (size+4)%p.K() == 0 {
		size++
	}
	block = make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(block)
	shards, err := p.Coder.Split(block)
	if err != nil {
		t.Fatal(err)
	}
	return block, shards
}

func cloneShards(shards [][]byte) [][]byte {
	out := make([][]byte, len(shards))
	for i, s := range shards {
		out[i] = append([]byte(nil), s...)
	}
	return out
}

// TestBadUploaderUnderLeafReuse: each inconsistent dispersal below must
// retrieve as BAD_UPLOADER from every K-subset of chunks, whichever
// server retrieves, even though the re-encoding check reuses the leaf
// hashes of the chunks it verified.
func TestBadUploaderUnderLeafReuse(t *testing.T) {
	for _, nf := range [][2]int{{4, 1}, {7, 2}} {
		p, err := NewParams(nf[0], nf[1])
		if err != nil {
			t.Fatal(err)
		}
		last := p.K() - 1
		cases := map[string]func(honest [][]byte) [][]byte{
			// One parity shard flipped: the data decodes, but it does
			// not re-encode to the committed parity.
			"inconsistent parity": func(honest [][]byte) [][]byte {
				s := cloneShards(honest)
				s[p.N-1][0] ^= 0x5A
				return s
			},
			// A consistent codeword whose last data shard carries
			// non-zero padding: every subset decodes the same block,
			// which re-encodes with zero padding.
			"non-zero padding": func(honest [][]byte) [][]byte {
				data := cloneShards(honest[:p.K()])
				data[last][len(data[last])-1] = 0xFF
				return rawCodeword(t, p, data)
			},
			// The honest codeword except the last data shard, which has
			// non-zero padding: its leaf verifies under the root and the
			// other shards re-encode to their committed bytes, so only
			// the byte comparison keeps its leaf from being reused for
			// the re-encoded (zero-padded) shard.
			"verified leaf, different re-encoded shard": func(honest [][]byte) [][]byte {
				s := cloneShards(honest)
				s[last][len(s[last])-1] = 0xFF
				return s
			},
		}
		for name, mutate := range cases {
			_, honest := padded(t, p, int64(nf[0]))
			chunks := byzChunksFromShards(t, p, mutate(honest))
			for self := 0; self < p.N; self++ {
				for _, subset := range kSubsets(p.N, p.K()) {
					r := retrieveFrom(t, p, self, chunks, subset)
					if got, bad := r.Block(); !bad || !IsBadUploader(got) {
						t.Fatalf("n=%d %s: self %d subset %v retrieved a block, want BAD_UPLOADER", p.N, name, self, subset)
					}
					if _, _, _, ok := r.OwnChunk(); ok {
						t.Fatalf("n=%d %s: BAD_UPLOADER retrieval reported an own chunk", p.N, name)
					}
				}
			}
		}
	}
}

// TestRetrieverOwnChunkMatchesDisperse: on success the retriever's own
// chunk and proof are exactly what Disperse sent server self, whether
// self's chunk was among those retrieved or only re-encoded.
func TestRetrieverOwnChunkMatchesDisperse(t *testing.T) {
	for _, nf := range [][2]int{{4, 1}, {7, 2}} {
		p, err := NewParams(nf[0], nf[1])
		if err != nil {
			t.Fatal(err)
		}
		block, _ := padded(t, p, 3)
		chunks, root, err := Disperse(p, block)
		if err != nil {
			t.Fatal(err)
		}
		for self := 0; self < p.N; self++ {
			for _, subset := range kSubsets(p.N, p.K()) {
				r := retrieveFrom(t, p, self, chunks, subset)
				if got, bad := r.Block(); bad || !bytes.Equal(got, block) {
					t.Fatalf("n=%d self %d subset %v: wrong block", p.N, self, subset)
				}
				gotRoot, data, proof, ok := r.OwnChunk()
				if !ok || gotRoot != root || !bytes.Equal(data, chunks[self].Data) {
					t.Fatalf("n=%d self %d subset %v: own chunk differs from Disperse's", p.N, self, subset)
				}
				want := chunks[self].Proof
				if proof.Index != want.Index || proof.Leaves != want.Leaves || len(proof.Path) != len(want.Path) {
					t.Fatalf("n=%d self %d subset %v: own proof shape differs", p.N, self, subset)
				}
				for i := range want.Path {
					if proof.Path[i] != want.Path[i] {
						t.Fatalf("n=%d self %d subset %v: own proof differs at level %d", p.N, self, subset, i)
					}
				}
			}
		}
	}
}

// TestVerifiedLeafOnlyForTheVerifiedBytes: a server vouches for the leaf
// of exactly the chunk it verified — not for other bytes, and not for a
// chunk restored from disk or adopted, which it never hashed.
func TestVerifiedLeafOnlyForTheVerifiedBytes(t *testing.T) {
	p, _ := NewParams(4, 1)
	chunks, root, _ := Disperse(p, []byte("leaf reuse"))
	s := NewServer(p, 1)
	s.Handle(-1, chunks[1])
	leaf, ok := s.VerifiedLeaf(chunks[1].Data)
	if !ok || leaf != merkle.HashLeaf(chunks[1].Data) {
		t.Fatal("verified chunk's leaf not kept")
	}
	other := append([]byte(nil), chunks[1].Data...)
	other[0] ^= 1
	if _, ok := s.VerifiedLeaf(other); ok {
		t.Fatal("leaf vouched for different bytes")
	}
	restored := RestoreServer(p, 1, root, true, chunks[1].Data, chunks[1].Proof)
	if _, ok := restored.VerifiedLeaf(chunks[1].Data); ok {
		t.Fatal("restored server vouched for a leaf it never computed")
	}
	adopted := NewServer(p, 1)
	adopted.AdoptComplete(root, chunks[1].Data, chunks[1].Proof)
	if _, ok := adopted.VerifiedLeaf(chunks[1].Data); ok {
		t.Fatal("adopting server vouched for a leaf it never computed")
	}
}
