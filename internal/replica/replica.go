// Package replica replicates an oasisd journal to follower daemons over
// the OW2 wire, so a domain can scale validation reads and survive the
// loss of its issuing node without losing a single revocation.
//
// The model is primary-copy with journal shipping. Every oasisd that
// journals (internal/durable) can serve its journal as a server stream:
// a follower subscribes with a (journal id, epoch, generation, offset)
// cursor, catches up — from the newest compacting snapshot when its
// cursor no longer addresses live history — and then tail-follows
// committed frames as the leader's committer writes them. Because the
// shipper forwards the same on-disk bytes recovery would replay —
// verbatim, checksums included, decoded only by the follower with the
// journal's own reader — a follower can never observe a record the
// leader has not committed: the replication stream is exactly the
// crash-recovery story, run continuously over the wire.
//
// The follower applies frames to a mirrored durable.State and into live
// read-only core Services (Config.ReadOnly), so validation callbacks and
// ECR reads are answered locally while every mutating method is proxied
// to the leader — gated by a lease the follower renews in band. An
// expired lease fails writes closed; reads fail closed once the leader
// has been silent past the staleness bound (the replica-level analog of
// the ECR stale-grace window).
package replica

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"repro/internal/cert"
	"repro/internal/durable"
)

// Service is the in-band replication service name, registered on the
// leader's wire listener next to the ordinary OASIS services. The
// leading underscore keeps it out of the policy namespace.
const Service = "_repl"

// Wire methods of the replication service.
const (
	// MethodSubscribe is the journal server stream: snapshot catch-up at
	// a cursor, then tail-follow of committed frames.
	MethodSubscribe = "subscribe_journal"
	// MethodLease grants/renews the follower's write-proxy lease.
	MethodLease = "lease"
	// MethodStatus reports the leader's journal position, for operators
	// and tests.
	MethodStatus = "status"
)

// Message kinds carried on the subscribe_journal stream.
const (
	// KindHello acknowledges a resumed cursor: the follower's position
	// was accepted verbatim, no catch-up needed.
	KindHello byte = iota + 1
	// KindSnapshot carries a snapshot image (empty for the empty state);
	// the follower must discard what it has and adopt it, resuming at
	// the accompanying cursor.
	KindSnapshot
	// KindRecs carries committed journal frames in order; the cursor is
	// the position just past them.
	KindRecs
	// KindHB is a liveness tick while the follower is caught up; it
	// bounds the follower's read staleness.
	KindHB
)

// Message is one message on the subscribe_journal stream:
//
//	kind byte | journal id | epoch uvarint | gen uvarint | off uvarint | body
//
// Body is the journal's own bytes, forwarded verbatim: segment frames
// for KindRecs (durable.DecodeFrames), a snapshot image for KindSnapshot
// (durable.DecodeSnapshot), nothing otherwise.
type Message struct {
	Kind   byte
	Cursor durable.Cursor
	Body   []byte
}

// Encode renders m for the wire.
func (m Message) Encode() []byte {
	b := make([]byte, 0, 1+len(m.Cursor.ID)+3*binary.MaxVarintLen64+1+len(m.Body))
	b = append(b, m.Kind)
	b = cert.AppendLenString(b, m.Cursor.ID)
	b = binary.AppendUvarint(b, m.Cursor.Epoch)
	b = binary.AppendUvarint(b, m.Cursor.Gen)
	b = binary.AppendUvarint(b, uint64(m.Cursor.Off))
	return append(b, m.Body...)
}

// DecodeMessage parses one stream message; Body aliases b.
func DecodeMessage(b []byte) (Message, error) {
	r := cert.NewBinReader(b)
	m := Message{Kind: r.Byte()}
	m.Cursor = durable.Cursor{ID: r.Str(), Epoch: r.Uvarint(), Gen: r.Uvarint(), Off: int64(r.Uvarint())}
	if err := r.Err(); err != nil {
		return Message{}, fmt.Errorf("replica: stream message: %w", err)
	}
	if m.Kind < KindHello || m.Kind > KindHB || m.Cursor.Off < 0 {
		return Message{}, fmt.Errorf("replica: stream message: kind %d, offset %d", m.Kind, m.Cursor.Off)
	}
	m.Body = r.Rest()
	return m, nil
}

// LeaseResponse answers MethodLease: the leader's identity and the TTL
// the follower may proxy writes under before renewing.
type LeaseResponse struct {
	Node      string `json:"node,omitempty"`
	JournalID string `json:"journal_id"`
	Epoch     uint64 `json:"epoch"`
	TTLMillis int64  `json:"ttl_ms"`
}

// StatusResponse answers MethodStatus.
type StatusResponse struct {
	Node        string `json:"node,omitempty"`
	JournalID   string `json:"journal_id"`
	Epoch       uint64 `json:"epoch"`
	Gen         uint64 `json:"gen"`
	Size        int64  `json:"size"`
	Subscribers int64  `json:"subscribers"`
}

// StateHash is a canonical digest of a replicated state, used to check
// leader/follower convergence (the snapshot encoding is canonical, so
// equal states hash equal).
func StateHash(st *durable.State) string {
	sum := sha256.Sum256(durable.EncodeSnapshot(st))
	return hex.EncodeToString(sum[:])
}
