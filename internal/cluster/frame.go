// Package cluster is the multi-process scale-out layer of Pallas: a
// coordinator that hands corpus units to worker processes from one run
// queue and survives worker crashes, hangs, and slow nodes without losing
// or double-recording a unit. Which worker runs a unit does not matter:
// workers share the -cache-dir disk tier (and, with -cache-peers, a peer
// tier that routes entries by key), so a repeat run hits the cache
// wherever its units land.
//
// The package provides four pieces:
//
//   - the wire frame codec (this file): length-framed, CRC-checked JSON
//     messages carried inside HTTP bodies between coordinator and worker;
//   - Ring: a consistent-hash ring mapping keys to members, which the peer
//     cache tier (internal/rcache/peer) uses to route entries to owners;
//   - Coordinator: the dispatch state machine (one FIFO run queue that
//     every live worker's lanes pull from, heartbeats, eviction, bounded
//     retry/requeue, quarantine, duplicate-completion suppression,
//     journaled exactly-once resume, deterministic merge);
//   - Supervisor: spawns local worker processes and restarts crashed ones.
//
// The merge contract is the PR-5 guarantee lifted cluster-wide: the merged
// reports, warning order, and path databases are byte-identical at any
// worker count and under any crash schedule, because per-unit outputs are
// deterministic, completions are recorded first-wins by content hash, and
// the merge is ordered by the input unit list, never by completion order.
package cluster

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"pallas/internal/guard"
)

// Frame types. A frame's payload is JSON; the type byte says which payload
// struct it decodes into.
const (
	// FrameAssign carries an AssignPayload: coordinator → worker, one unit
	// to analyze.
	FrameAssign = byte(0x01)
	// FrameResult carries a ResultPayload: worker → coordinator, the
	// outcome of one assignment (including failed analyses — transport
	// errors are HTTP-level, not frames).
	FrameResult = byte(0x02)
	// FramePeerGet carries a PeerGetPayload: one peer asking another for a
	// cache entry by key.
	FramePeerGet = byte(0x03)
	// FramePeerEntry carries a PeerEntryPayload: the answer to a peer get —
	// found-or-not plus the entry bytes.
	FramePeerEntry = byte(0x04)
	// FramePeerPut carries a PeerPutPayload: a replicated (or read-repair,
	// or hinted-handoff) cache write from one peer to another.
	FramePeerPut = byte(0x05)
)

// validFrameType reports whether typ names a known frame type. Both encode
// and decode enforce it, so an unknown type byte can never be produced or
// accepted — a corrupt type byte fails before the length is trusted.
func validFrameType(typ byte) bool {
	switch typ {
	case FrameAssign, FrameResult, FramePeerGet, FramePeerEntry, FramePeerPut:
		return true
	}
	return false
}

// MaxFramePayload bounds a frame's payload (64 MiB): large enough for any
// merged translation unit's report plus path database, small enough that a
// corrupt or hostile length prefix cannot balloon the heap.
const MaxFramePayload = 64 << 20

// frameMagic opens every frame; a stream that does not start with it is
// rejected immediately instead of being misread as a length.
var frameMagic = [4]byte{'P', 'L', 'S', 'F'}

// Frame decode errors, distinguishable with errors.Is so transports can map
// them to status codes (oversized → 413, everything else → 400).
var (
	// ErrBadMagic reports a stream that does not open with the frame magic.
	ErrBadMagic = errors.New("cluster: bad frame magic")
	// ErrOversized reports a length prefix beyond MaxFramePayload.
	ErrOversized = errors.New("cluster: frame payload exceeds limit")
	// ErrChecksum reports a payload that does not match its CRC.
	ErrChecksum = errors.New("cluster: frame checksum mismatch")
	// ErrTruncated reports a frame cut short of its declared length.
	ErrTruncated = errors.New("cluster: truncated frame")
	// ErrBadType reports an unknown frame type byte.
	ErrBadType = errors.New("cluster: unknown frame type")
)

var frameCRC = crc32.MakeTable(crc32.Castagnoli)

// frame layout: magic(4) type(1) length(4,BE) crc32c(4,BE) payload(length).
const frameHeaderLen = 13

// EncodeFrame frames v (JSON-marshaled) as one wire frame.
func EncodeFrame(typ byte, v any) ([]byte, error) {
	if !validFrameType(typ) {
		return nil, fmt.Errorf("%w: 0x%02x", ErrBadType, typ)
	}
	payload, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("cluster: encode frame: %w", err)
	}
	if len(payload) > MaxFramePayload {
		return nil, fmt.Errorf("%w: %d bytes", ErrOversized, len(payload))
	}
	buf := make([]byte, frameHeaderLen+len(payload))
	copy(buf, frameMagic[:])
	buf[4] = typ
	binary.BigEndian.PutUint32(buf[5:9], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[9:13], crc32.Checksum(payload, frameCRC))
	copy(buf[frameHeaderLen:], payload)
	return buf, nil
}

// WriteFrame encodes v and writes the frame to w.
func WriteFrame(w io.Writer, typ byte, v any) error {
	buf, err := EncodeFrame(typ, v)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// ReadFrame reads exactly one frame from r and returns its type and payload
// bytes. Every malformed input — wrong magic, unknown type, oversized or
// truncated length, checksum mismatch — returns a typed error and never
// panics, whatever the bytes; FuzzClusterFrame holds the codec to that.
func ReadFrame(r io.Reader) (byte, []byte, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, nil, fmt.Errorf("%w: short header", ErrTruncated)
		}
		return 0, nil, err
	}
	if [4]byte(hdr[:4]) != frameMagic {
		return 0, nil, ErrBadMagic
	}
	typ := hdr[4]
	if !validFrameType(typ) {
		return 0, nil, fmt.Errorf("%w: 0x%02x", ErrBadType, typ)
	}
	n := binary.BigEndian.Uint32(hdr[5:9])
	if n > MaxFramePayload {
		return 0, nil, fmt.Errorf("%w: %d bytes", ErrOversized, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, nil, fmt.Errorf("%w: want %d payload bytes", ErrTruncated, n)
		}
		return 0, nil, err
	}
	if crc32.Checksum(payload, frameCRC) != binary.BigEndian.Uint32(hdr[9:13]) {
		return 0, nil, ErrChecksum
	}
	return typ, payload, nil
}

// DecodeFrame reads one frame of the wanted type and unmarshals its payload
// into v. A frame of a different type is an ErrBadType.
func DecodeFrame(r io.Reader, want byte, v any) error {
	typ, payload, err := ReadFrame(r)
	if err != nil {
		return err
	}
	if typ != want {
		return fmt.Errorf("%w: got 0x%02x, want 0x%02x", ErrBadType, typ, want)
	}
	if err := json.Unmarshal(payload, v); err != nil {
		return fmt.Errorf("cluster: decode frame payload: %w", err)
	}
	return nil
}

// AssignPayload is a FrameAssign body: one unit for the worker to analyze.
type AssignPayload struct {
	// Unit identifies the unit (file name) in reports and journals.
	Unit string `json:"unit"`
	// Hash is the unit's content hash; the worker echoes it so completions
	// can be keyed (and de-duplicated) by content, not by connection.
	Hash string `json:"hash"`
	// Source and Spec are the unit's inputs, shipped whole: workers are
	// stateless with respect to the corpus.
	Source string `json:"source"`
	Spec   string `json:"spec,omitempty"`
	// Attempt is the coordinator's 1-based dispatch attempt for this unit,
	// for worker-side logging and journal parity.
	Attempt int `json:"attempt"`
	// Epoch is the fenced lease epoch of this dispatch — monotonic across
	// the run, unique per dispatch (retries and hedges each get a fresh
	// one). The worker echoes it in its result; a completion whose epoch no
	// longer names a valid lease is rejected, which is what makes a zombie
	// worker's late answer harmless.
	Epoch int64 `json:"epoch,omitempty"`
}

// ResultPayload is a FrameResult body: the worker's outcome for one
// assignment. Exactly one of two shapes: Status ok/degraded with Report and
// Paths bytes, or Status failed with Err (and Transient saying whether the
// coordinator should requeue).
type ResultPayload struct {
	// Unit and Hash echo the assignment.
	Unit string `json:"unit"`
	Hash string `json:"hash"`
	// Attempt echoes the assignment's attempt number.
	Attempt int `json:"attempt"`
	// Status is "ok", "degraded", or "failed".
	Status string `json:"status"`
	// Report is the marshaled report JSON (deterministic bytes — identical
	// from any worker at any concurrency, the PR-5 guarantee).
	Report json.RawMessage `json:"report,omitempty"`
	// Paths is the marshaled path database JSON.
	Paths json.RawMessage `json:"paths,omitempty"`
	// Diagnostics carries the unit's degradation record.
	Diagnostics []guard.Diagnostic `json:"diagnostics,omitempty"`
	// Degraded and Warnings mirror the report for cheap scanning.
	Degraded bool `json:"degraded,omitempty"`
	Warnings int  `json:"warnings"`
	// Err is the analysis failure, for Status failed.
	Err string `json:"error,omitempty"`
	// Transient classifies a failure: true means the coordinator may
	// requeue (panic, budget blowout, injected fault), false means the
	// input deterministically fails and retrying is pointless.
	Transient bool `json:"transient,omitempty"`
	// Cache is "hit" when the worker served the result from its cache.
	Cache string `json:"cache,omitempty"`
	// Worker is the responding worker's advertised address.
	Worker string `json:"worker,omitempty"`
	// Epoch echoes the assignment's lease epoch (0 from workers predating
	// fencing; the coordinator then falls back to hash-keyed suppression).
	Epoch int64 `json:"epoch,omitempty"`
	// Sum is the end-to-end content checksum over Report and Paths
	// (rcache.ContentSum), fixed when the analysis produced the bytes. The
	// frame CRC covers one wire hop; Sum covers the whole journey — worker
	// cache, serialization, transport, coordinator merge. Empty means the
	// worker could not attest (old cache entry), not a failure.
	Sum string `json:"sum,omitempty"`
}

// PeerGetPayload is a FramePeerGet body: one peer asking another for a
// cache entry.
type PeerGetPayload struct {
	// Key is the cache key (a result-cache content key or an incr memo
	// key; the tier has one key space). A "space" field sent by an older
	// peer is an unknown field and is ignored.
	Key string `json:"key"`
	// Epoch is the requester's ring epoch. A receiver whose epoch is newer
	// refuses the request (HTTP 409), fencing a zombie peer that is routing
	// on a stale ring; a receiver whose epoch is older adopts nothing — it
	// answers anyway, since serving a cache read on a slightly stale ring is
	// harmless (content-addressed keys cannot alias).
	Epoch int64 `json:"epoch,omitempty"`
	// From is the requesting peer's advertised cache address, for logging.
	From string `json:"from,omitempty"`
}

// PeerEntryPayload is a FramePeerEntry body: the answer to a peer get.
type PeerEntryPayload struct {
	Key   string `json:"key"`
	Found bool   `json:"found"`
	// Entry is the marshaled rcache entry JSON (the persistent-tier disk
	// format), present when Found. Its embedded Sum is re-verified by the
	// requester against the entry content — the frame CRC covers this hop,
	// the content sum covers the entry's whole life.
	Entry json.RawMessage `json:"entry,omitempty"`
	// Epoch is the responder's ring epoch, so a requester can learn it is
	// stale and stop trusting its routing until the next peer-map push.
	Epoch int64 `json:"epoch,omitempty"`
}

// PeerPutPayload is a FramePeerPut body: a replicated cache write.
type PeerPutPayload struct {
	// Key is the cache key, as in PeerGetPayload.
	Key string `json:"key"`
	// Entry is the marshaled rcache entry JSON, same format as
	// PeerEntryPayload.Entry.
	Entry json.RawMessage `json:"entry"`
	// Epoch is the sender's ring epoch; stale senders are refused (409) so a
	// zombie peer cannot seed rotted or misrouted entries after eviction.
	Epoch int64 `json:"epoch,omitempty"`
	// From is the sending peer's advertised cache address, for logging.
	From string `json:"from,omitempty"`
}

// PeerMapPath is the worker endpoint that accepts coordinator PeerMap
// pushes (plain JSON over POST). Defined here rather than in rcache/peer so
// the coordinator can address it without importing the tier.
const PeerMapPath = "/v1/cluster/cachemap"

// PeerMap is the coordinator-distributed routing state of the shared cache
// tier: the set of cache endpoints and the replication factor, fenced by a
// monotonic epoch. Workers replace their tier's routing atomically on each
// push and refuse pushes whose epoch is not newer than what they hold.
type PeerMap struct {
	// Epoch is bumped by the coordinator on every membership change. A
	// rejoining zombie worker holds an old epoch; its peer ops carry that
	// epoch and are refused by peers holding a newer map.
	Epoch int64 `json:"epoch"`
	// Peers are the cache endpoints (host:port of each worker's serve
	// engine), sorted for deterministic ring construction.
	Peers []string `json:"peers"`
	// Replicas is the replication factor (how many owners each key has).
	Replicas int `json:"replicas"`
}

// PongPayload is the worker's heartbeat answer (plain JSON over GET — the
// frame codec is reserved for unit traffic, where payloads are large and
// integrity matters; a heartbeat is small, idempotent, and latency-bound).
type PongPayload struct {
	Status        string `json:"status"`
	InFlight      int64  `json:"in_flight"`
	QueueDepth    int    `json:"queue_depth"`
	UnitsDone     int64  `json:"units_done"`
	UptimeSeconds int64  `json:"uptime_seconds"`
}
