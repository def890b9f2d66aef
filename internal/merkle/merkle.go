// Package merkle implements the Merkle tree commitments used by AVID-M.
//
// A tree is built over an ordered list of chunks. The root is a 32-byte
// commitment to the whole list; a Proof shows that a particular chunk is
// the i-th leaf under a given root. The construction follows RFC 6962
// (Certificate Transparency): leaves and interior nodes are hashed with
// distinct domain-separation prefixes, which prevents an attacker from
// presenting an interior node as a leaf or vice versa, and the tree over n
// leaves splits at the largest power of two strictly less than n, so any
// leaf count is supported without padding.
package merkle

import (
	"crypto/sha256"
	"errors"
)

// RootSize is the size of a Merkle root in bytes.
const RootSize = sha256.Size

// Root is a Merkle tree root: the commitment AVID-M agrees on.
type Root [RootSize]byte

// Proof proves that a chunk is the leaf at a given index under some root.
type Proof struct {
	Index  int    // leaf position, 0-based
	Leaves int    // total number of leaves in the tree
	Path   []Root // sibling hashes from the leaf to the root
}

var (
	leafPrefix     = []byte{0x00}
	interiorPrefix = []byte{0x01}
)

// ErrBadProof is returned by Verify for structurally invalid proofs.
var ErrBadProof = errors.New("merkle: malformed proof")

// HashLeaf returns the leaf hash of a chunk.
func HashLeaf(chunk []byte) Root {
	h := sha256.New()
	h.Write(leafPrefix)
	h.Write(chunk)
	var r Root
	h.Sum(r[:0])
	return r
}

func hashInterior(left, right Root) Root {
	h := sha256.New()
	h.Write(interiorPrefix)
	h.Write(left[:])
	h.Write(right[:])
	var r Root
	h.Sum(r[:0])
	return r
}

// Tree is an in-memory Merkle tree. Build once, then read the Root and
// generate Proofs; a Tree is safe for concurrent reads.
type Tree struct {
	leaves int
	root   Root
	// nodes caches every subtree hash, keyed by (start, size) range of
	// leaves, to make proof generation O(log n) after an O(n) build.
	nodes map[span]Root
}

type span struct{ start, size int }

// NewTree builds a Merkle tree over the given chunks. It panics if chunks
// is empty: AVID-M always has N >= 1 chunks.
func NewTree(chunks [][]byte) *Tree {
	leaves := make([]Root, len(chunks))
	for i, c := range chunks {
		leaves[i] = HashLeaf(c)
	}
	return NewTreeFromLeaves(leaves)
}

// NewTreeFromLeaves builds the tree whose leaf hashes are leaves (each a
// HashLeaf output), for callers that already hold some of them — a
// retrieval client re-encoding a block reuses the leaves it verified.
// It panics if leaves is empty.
func NewTreeFromLeaves(leaves []Root) *Tree {
	if len(leaves) == 0 {
		panic("merkle: empty leaf list")
	}
	t := &Tree{leaves: len(leaves), nodes: make(map[span]Root, 2*len(leaves))}
	t.root = t.build(leaves, 0)
	return t
}

func (t *Tree) build(leaves []Root, start int) Root {
	var r Root
	if len(leaves) == 1 {
		r = leaves[0]
	} else {
		k := splitPoint(len(leaves))
		left := t.build(leaves[:k], start)
		right := t.build(leaves[k:], start+k)
		r = hashInterior(left, right)
	}
	t.nodes[span{start, len(leaves)}] = r
	return r
}

// splitPoint returns the largest power of two strictly less than n (n >= 2),
// per RFC 6962.
func splitPoint(n int) int {
	k := 1
	for k*2 < n {
		k *= 2
	}
	return k
}

// Root returns the tree root.
func (t *Tree) Root() Root { return t.root }

// Leaves returns the number of leaves.
func (t *Tree) Leaves() int { return t.leaves }

// Prove returns the inclusion proof for leaf i.
func (t *Tree) Prove(i int) (Proof, error) {
	if i < 0 || i >= t.leaves {
		return Proof{}, ErrBadProof
	}
	p := Proof{Index: i, Leaves: t.leaves}
	start, size := 0, t.leaves
	// Walk down from the root to the leaf, recording the sibling at each
	// step; then reverse so Path runs leaf -> root.
	var down []Root
	for size > 1 {
		k := splitPoint(size)
		if i < start+k {
			down = append(down, t.nodes[span{start + k, size - k}])
			size = k
		} else {
			down = append(down, t.nodes[span{start, k}])
			start, size = start+k, size-k
		}
	}
	for j := len(down) - 1; j >= 0; j-- {
		p.Path = append(p.Path, down[j])
	}
	return p, nil
}

// Verify reports whether proof shows that chunk is the leaf at proof.Index
// of a tree with proof.Leaves leaves whose root is root.
func Verify(root Root, chunk []byte, proof Proof) bool {
	// A malformed proof is rejected before the chunk is hashed.
	return wellFormed(proof) && VerifyLeaf(root, HashLeaf(chunk), proof)
}

// VerifyLeaf is Verify for a caller that already holds the chunk's leaf
// hash (HashLeaf of the chunk): it checks only the proof path.
func VerifyLeaf(root, leaf Root, proof Proof) bool {
	if !wellFormed(proof) {
		return false
	}
	h := leaf
	idx, leaves := proof.Index, proof.Leaves
	// Recompute bottom-up. At each level we need to know whether the
	// current subtree is a left or right child, which depends on the RFC
	// 6962 split structure; recompute it by walking the same splits.
	dirs := directions(idx, leaves)
	for i, sib := range proof.Path {
		if dirs[i] { // current node is a right child
			h = hashInterior(sib, h)
		} else {
			h = hashInterior(h, sib)
		}
	}
	return h == root
}

// wellFormed reports whether proof's index and path length fit its
// leaf count.
func wellFormed(proof Proof) bool {
	if proof.Index < 0 || proof.Leaves <= 0 || proof.Index >= proof.Leaves {
		return false
	}
	return len(proof.Path) == pathLen(proof.Index, proof.Leaves)
}

// directions returns, leaf-to-root, whether the node on the path is a right
// child at each level.
func directions(index, leaves int) []bool {
	var topDown []bool
	start, size := 0, leaves
	for size > 1 {
		k := splitPoint(size)
		if index < start+k {
			topDown = append(topDown, false)
			size = k
		} else {
			topDown = append(topDown, true)
			start, size = start+k, size-k
		}
	}
	// reverse to leaf-to-root order
	for i, j := 0, len(topDown)-1; i < j; i, j = i+1, j-1 {
		topDown[i], topDown[j] = topDown[j], topDown[i]
	}
	return topDown
}

func pathLen(index, leaves int) int {
	n := 0
	start, size := 0, leaves
	for size > 1 {
		k := splitPoint(size)
		if index < start+k {
			size = k
		} else {
			start, size = start+k, size-k
		}
		n++
	}
	return n
}
