package gateway

import (
	"bytes"
	"testing"
	"time"

	"dledger/internal/merkle"
)

// encodeMessage re-encodes a decoded frame body with the encoder of its
// type.
func encodeMessage(m Message) []byte {
	switch m.Type {
	case MTHello:
		return EncodeHello(*m.Hello)
	case MTWelcome:
		return EncodeWelcome(*m.Welcome)
	case MTSubmit:
		return EncodeSubmit(*m.Submit)
	case MTReceipt:
		return EncodeReceipt(*m.Receipt)
	case MTCommit:
		return EncodeCommit(*m.Commit)
	case MTPing:
		return EncodePing(*m.Ping)
	default:
		return EncodePong(*m.Ping)
	}
}

// FuzzDecodeMessage covers the client protocol decoder: any party that
// can reach the gateway port controls every frame body, and a node
// controls every frame a client reads. Decoding must fail cleanly, and
// what decodes must re-encode stably. The seed corpus lives in
// testdata/fuzz/FuzzDecodeMessage.
func FuzzDecodeMessage(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeHello(Hello{Name: []byte("client-1"), Subscribe: true}))
	f.Add(EncodeWelcome(Welcome{ClientID: 7, N: 4, F: 1, MaxTxBytes: 1 << 20}))
	f.Add(EncodeSubmit(Submit{ReqID: 3, Tx: []byte("tx bytes")}))
	f.Add(EncodeReceipt(Receipt{ReqID: 3, Status: StatusAccepted, TxHash: [32]byte{1}, RetryAfter: 5 * time.Millisecond}))
	f.Add(EncodeCommit(Commit{TxHash: [32]byte{2}, Epoch: 9, Proposer: 1, Index: 2, Count: 5, Path: make([]merkle.Root, 3)}))
	f.Add(EncodePing(Ping{Nonce: 42}))
	f.Add(EncodePong(Ping{Nonce: 42}))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMessage(data)
		if err != nil {
			return
		}
		re := encodeMessage(m)
		m2, err := DecodeMessage(re)
		if err != nil {
			t.Fatalf("re-decode of a decoded frame failed: %v", err)
		}
		if m2.Type != m.Type || !bytes.Equal(encodeMessage(m2), re) {
			t.Fatal("frame encoding not stable across a round trip")
		}
	})
}
