package statesync

import (
	"testing"

	"dledger/internal/avid"
	"dledger/internal/store"
	"dledger/internal/wire"
)

func blobFor(epoch uint64) []byte {
	return store.EncodeManifest(&store.Manifest{
		N: 4, Epoch: epoch, LinkedFloor: []uint64{epoch, epoch, epoch, epoch},
	})
}

func TestTrackerRingAndEviction(t *testing.T) {
	tr := NewTracker(3)
	for _, e := range []uint64{8, 16, 24, 32} {
		tr.Add(e, blobFor(e))
	}
	pts := tr.Points()
	if len(pts) != 3 || pts[0].Epoch != 32 || pts[2].Epoch != 16 {
		t.Fatalf("ring wrong: %+v", pts)
	}
	if tr.Blob(8) != nil {
		t.Fatal("evicted point still served")
	}
	if tr.Blob(24) == nil {
		t.Fatal("resident point not served")
	}
	if pts[0].Hash != store.ManifestHash(blobFor(32)) {
		t.Fatal("attestation hash mismatch")
	}
}

func TestPagePagination(t *testing.T) {
	blob := make([]byte, 2*PageBytes+100)
	for i := range blob {
		blob[i] = byte(i)
	}
	var got []byte
	for p := uint32(0); ; p++ {
		data, last, ok := Page(blob, p)
		if !ok {
			t.Fatalf("page %d missing", p)
		}
		got = append(got, data...)
		if last {
			break
		}
	}
	if len(got) != len(blob) {
		t.Fatalf("reassembled %d bytes, want %d", len(got), len(blob))
	}
	if _, _, ok := Page(blob, 3); ok {
		t.Fatal("page beyond the end served")
	}
}

// offer sends the same point from several peers.
func offer(s *Syncer, peers []int, p wire.SyncPoint) []Out {
	var outs []Out
	for _, from := range peers {
		outs = append(outs, s.OnOffer(from, wire.SyncOffer{Points: []wire.SyncPoint{p}})...)
	}
	return outs
}

func TestSyncerAdoptsOnQuorumOnly(t *testing.T) {
	s := NewSyncer(4, 1, 0)
	blob := blobFor(16)
	good := wire.SyncPoint{Epoch: 16, Hash: store.ManifestHash(blob)}
	forged := wire.SyncPoint{Epoch: 999, Hash: [32]byte{0xba, 0xd0}}

	// A single (possibly Byzantine) claim must not be adopted — even one
	// claiming a much newer epoch.
	if outs := offer(s, []int{1}, forged); len(outs) != 0 {
		t.Fatal("adopted a single-attestation point")
	}
	// f+1 identical claims adopt the point and start the pull.
	outs := offer(s, []int{2, 3}, good)
	if len(outs) != 1 {
		t.Fatalf("want one pull, got %v", outs)
	}
	pull, ok := outs[0].Msg.(wire.SyncPull)
	if !ok || pull.Section != wire.SyncSectionManifest || outs[0].Epoch != 16 {
		t.Fatalf("bad pull %+v", outs[0])
	}
	if !s.Bootstrapping() {
		t.Fatal("not bootstrapping")
	}

	// Serve the manifest in one page from the pulled donor.
	donor := outs[0].To
	_, done, _ := s.OnPage(donor, 16, wire.SyncPage{Section: wire.SyncSectionManifest, Page: 0, Last: true, Data: blob})
	if done == nil || done.Manifest == nil || done.Manifest.Epoch != 16 {
		t.Fatalf("manifest not accepted: %+v", done)
	}
	if s.Bootstrapping() {
		t.Fatal("still bootstrapping after install")
	}
}

func TestSyncerRejectsCorruptManifest(t *testing.T) {
	s := NewSyncer(4, 1, 0)
	blob := blobFor(16)
	good := wire.SyncPoint{Epoch: 16, Hash: store.ManifestHash(blob)}
	outs := offer(s, []int{1, 2}, good)
	donor := outs[0].To
	bad := append([]byte(nil), blob...)
	bad[10] ^= 1
	corrupt := wire.SyncPage{Section: wire.SyncSectionManifest, Page: 0, Last: true, Data: bad}
	// A corrupt transfer convicts its (single) donor: the syncer must
	// rotate to the other attester, not accept the bytes and not give
	// up on the target.
	outs, done, _ := s.OnPage(donor, 16, corrupt)
	if done != nil {
		t.Fatal("corrupt manifest accepted")
	}
	if len(outs) != 1 || outs[0].To == donor {
		t.Fatalf("expected a pull from the other donor, got %v", outs)
	}
	// The honest donor completes the transfer.
	_, done, _ = s.OnPage(outs[0].To, 16, wire.SyncPage{
		Section: wire.SyncSectionManifest, Page: 0, Last: true, Data: blob})
	if done == nil || done.Manifest == nil {
		t.Fatal("transfer did not complete from the honest donor")
	}

	// Only when every attester served garbage does the syncer re-target
	// (hellos go out again).
	s2 := NewSyncer(4, 1, 0)
	outs = offer(s2, []int{1, 2}, good)
	cur := outs[0].To
	outs, done, _ = s2.OnPage(cur, 16, corrupt)
	if done != nil || len(outs) != 1 {
		t.Fatalf("first corruption: got %v", outs)
	}
	outs, done, _ = s2.OnPage(outs[0].To, 16, corrupt)
	if done != nil {
		t.Fatal("corrupt manifest accepted")
	}
	if len(outs) != 3 {
		t.Fatalf("expected re-hello broadcast, got %v", outs)
	}
	if _, ok := outs[0].Msg.(wire.SyncHello); !ok {
		t.Fatalf("expected SyncHello, got %T", outs[0].Msg)
	}
}

func TestSyncerFallbackOnEmptyOffers(t *testing.T) {
	s := NewSyncer(4, 1, 0)
	s.OnOffer(1, wire.SyncOffer{})
	s.OnOffer(2, wire.SyncOffer{})
	_, done := s.Tick()
	if done == nil || !done.Fallback {
		t.Fatal("no fallback despite a quorum of empty offers")
	}
	if !s.Done() {
		t.Fatal("syncer not done after fallback")
	}
}

func TestSyncerDonorRotationOnTick(t *testing.T) {
	s := NewSyncer(4, 1, 0)
	blob := blobFor(16)
	good := wire.SyncPoint{Epoch: 16, Hash: store.ManifestHash(blob)}
	outs := offer(s, []int{1, 2}, good)
	first := outs[0].To
	outs, done := s.Tick()
	if done != nil || len(outs) != 1 || outs[0].To == first {
		t.Fatalf("expected re-pull from the other donor, got %v", outs)
	}
}

func TestVerifyChunkRecord(t *testing.T) {
	p, err := avid.NewParams(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	block := []byte("the canonical test block payload for chunk verification")
	chunks, root, err := avid.Disperse(p, block)
	if err != nil {
		t.Fatal(err)
	}
	rec := store.ChunkRecord{Epoch: 20, Proposer: 1, Root: root, HasChunk: true, Data: chunks[2].Data, Proof: chunks[2].Proof}
	if !VerifyChunkRecord(2, rec) {
		t.Fatal("valid record rejected")
	}
	// A donor cannot speak for another node's leaf.
	if VerifyChunkRecord(3, rec) {
		t.Fatal("record accepted at the wrong donor index")
	}
	// Corrupt bytes fail the Merkle check.
	bad := rec
	bad.Data = append([]byte(nil), rec.Data...)
	bad.Data[0] ^= 1
	if VerifyChunkRecord(2, bad) {
		t.Fatal("corrupt chunk accepted")
	}
	// Completion-only records (no chunk) are not importable.
	none := rec
	none.HasChunk = false
	if VerifyChunkRecord(2, none) {
		t.Fatal("chunkless record accepted")
	}
}

func TestSyncerRotatesDonorOnEvictedReply(t *testing.T) {
	// One attester refusing to serve (evicted ring, or Byzantine
	// co-attestation) must rotate the pull to the next attester, not
	// restart offer collection — a restart would re-select the same
	// donor first and a single bad peer could livelock the join.
	s := NewSyncer(4, 1, 0)
	blob := blobFor(16)
	good := wire.SyncPoint{Epoch: 16, Hash: store.ManifestHash(blob)}
	outs := offer(s, []int{1, 2, 3}, good)
	first := outs[0].To
	nak := wire.SyncPage{Section: wire.SyncSectionManifest, Page: 0, Last: true}
	outs, done, _ := s.OnPage(first, 16, nak)
	if done != nil {
		t.Fatal("evicted reply produced a result")
	}
	if len(outs) != 1 || outs[0].To == first {
		t.Fatalf("expected a pull from another donor, got %v", outs)
	}
	if _, ok := outs[0].Msg.(wire.SyncPull); !ok {
		t.Fatalf("expected SyncPull, got %T", outs[0].Msg)
	}
	// The second donor serves; the transfer completes despite donor 1.
	_, done, _ = s.OnPage(outs[0].To, 16, wire.SyncPage{
		Section: wire.SyncSectionManifest, Page: 0, Last: true, Data: blob})
	if done == nil || done.Manifest == nil {
		t.Fatal("transfer did not complete after rotation")
	}
	// Only when EVERY attester refuses does the syncer re-target.
	s2 := NewSyncer(4, 1, 0)
	outs = offer(s2, []int{1, 2}, good)
	cur := outs[0].To
	for i := 0; i < 2; i++ {
		outs, done, _ = s2.OnPage(cur, 16, nak)
		if done != nil {
			t.Fatal("all-refused produced a result")
		}
		if len(outs) == 0 {
			t.Fatal("no follow-up after NAK")
		}
		cur = outs[0].To
	}
	if _, ok := outs[0].Msg.(wire.SyncHello); !ok {
		t.Fatalf("expected re-targeting hello after all donors refused, got %T", outs[0].Msg)
	}
}

func TestSyncerDuplicatePointsInOneOfferCountOnce(t *testing.T) {
	// A single Byzantine peer listing the same forged point twice must
	// not reach the f+1 attestation quorum (f=1 here, so 2 needed).
	s := NewSyncer(4, 1, 0)
	forged := wire.SyncPoint{Epoch: 999, Hash: [32]byte{0xde, 0xad}}
	outs := s.OnOffer(1, wire.SyncOffer{Points: []wire.SyncPoint{forged, forged, forged}})
	if len(outs) != 0 {
		t.Fatalf("duplicate self-attestation adopted a point: %v", outs)
	}
	if !s.Bootstrapping() || s.Target() != (wire.SyncPoint{}) {
		t.Fatal("target adopted from a single peer")
	}
	// A second, independent attestation of the same point still works.
	outs = s.OnOffer(2, wire.SyncOffer{Points: []wire.SyncPoint{forged}})
	if len(outs) != 1 {
		t.Fatalf("two independent attestations not adopted: %v", outs)
	}
}
