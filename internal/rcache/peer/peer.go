// Package peer is the shared cluster cache tier: it federates the
// worker-local result caches (rcache, which also hold the incr memo's
// records) into one logical cache over consistent-hash key routing, so a
// unit analyzed — or a function memoized — on any worker warms the whole
// fleet.
//
// The design center is robustness, not throughput: the tier is an
// accelerator that must never become a dependency. Every remote operation
// carries a strict per-op deadline and degrades to the local tiers on any
// miss, timeout, refusal, or corruption — a peer being slow, dead,
// partitioned, or lying can cost a re-analysis, never a wrong byte or a
// blocked run. Concretely:
//
//   - routing: keys are placed on a consistent-hash ring (cluster.Ring)
//     over the fleet's cache endpoints with a configurable replication
//     factor (default 2), so each key has a stable owner set;
//   - per-peer circuit breakers: a peer that keeps failing is skipped
//     entirely until a cooldown probe succeeds (the rcache persistent-tier
//     state machine, one per peer), so a dead peer costs a handful of
//     timeouts, not one per lookup;
//   - verification: every remote hit is re-verified against its embedded
//     content checksum (rcache.ContentSum) before use; a rotted entry is
//     refused, counted, and treated as a miss — and read-repair pushes the
//     good replica back to the owner that missed or rotted;
//   - hinted handoff: a replicated write owed to an unreachable peer is
//     queued locally (byte-bounded, oldest dropped first) and drained when
//     the peer returns, so a brief outage does not leave a replica
//     permanently cold;
//   - fenced epochs: the routing map carries a monotonic epoch
//     (coordinator-bumped on every membership change); receivers refuse
//     peer ops from senders with an older epoch, so a rejoining zombie
//     cannot serve or seed entries under stale routing.
//
// The tier has one key space, the local cache's: result entries are keyed
// on content hashes and memo records on framed fingerprint hashes
// (incr.FuncKey, incr.UnitKey), so the kinds cannot collide.
package peer

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"pallas/internal/cluster"
	"pallas/internal/failpoint"
	"pallas/internal/metrics"
	"pallas/internal/overload"
	"pallas/internal/rcache"
)

// Defaults. The op timeout is deliberately tight: a peer fetch competes
// with just re-analyzing the unit locally, and the tier must degrade to
// that long before a human notices a stall.
const (
	DefaultReplicas        = 2
	DefaultOpTimeout       = 250 * time.Millisecond
	DefaultHandoffMaxBytes = 32 << 20
	DefaultDrainInterval   = 500 * time.Millisecond
)

// GetPath and PutPath are the HTTP endpoints peers call on each other,
// hosted by each worker's serve engine on its main listener (so peer ops
// share the admission path with every other request).
const (
	GetPath = "/v1/cluster/cache/get"
	PutPath = "/v1/cluster/cache/put"
	MapPath = cluster.PeerMapPath
)

// Options configures New.
type Options struct {
	// Self is this process's own cache address (host:port of its serve
	// listener). Self is excluded from remote operations — the local tiers
	// are always consulted first — but participates in ring ownership so
	// every peer routes identically.
	Self string
	// Replicas is the replication factor: how many ring owners each key
	// has. <= 0 means DefaultReplicas.
	Replicas int
	// OpTimeout is the per-operation deadline for one remote get or put.
	// <= 0 means DefaultOpTimeout.
	OpTimeout time.Duration
	// HandoffMaxBytes bounds the total bytes of queued hinted-handoff
	// writes across all peers; beyond it the oldest hints are dropped
	// (the entry still lives in the writer's local tiers, so a dropped
	// hint costs a future remote miss, never data). <= 0 means
	// DefaultHandoffMaxBytes.
	HandoffMaxBytes int64
	// DrainInterval is how often the background drain loop retries queued
	// hints against recovered peers. <= 0 means DefaultDrainInterval.
	DrainInterval time.Duration
	// BreakerThreshold and BreakerCooldown configure each peer's circuit
	// breaker (consecutive failures to trip; how long tripped ops are
	// skipped before a probe). Zero means the overload defaults; a
	// negative threshold disables per-peer breakers.
	BreakerThreshold int
	// BreakerCooldown is how long a tripped peer stays skipped before one
	// probe operation is allowed through.
	BreakerCooldown time.Duration
	// Registry holds the pallas_peer_* instruments, which are also what
	// Stats reads; nil means a registry of the tier's own.
	Registry *metrics.Registry
	// Client is the HTTP client for peer ops; nil builds one with sane
	// pooled-connection defaults.
	Client *http.Client
}

// Stats is a point-in-time snapshot of tier activity: the counters are read
// from the tier's registry, the queue and ring fields from its live state.
type Stats struct {
	// Hits counts lookups answered by a remote peer after verification.
	Hits int64
	// Misses counts lookups that fell through every reachable replica.
	Misses int64
	// RotRefusals counts remote entries refused for a content-sum mismatch.
	RotRefusals int64
	// Repairs counts read-repair writes pushed to a replica that missed or
	// served rot.
	Repairs int64
	// Puts and PutBytes count replicated writes delivered and their payload
	// bytes (replication overhead).
	Puts     int64
	PutBytes int64
	// Timeouts counts remote ops abandoned at the per-op deadline.
	Timeouts int64
	// BreakerSkips counts remote ops skipped because the peer's breaker was
	// open.
	BreakerSkips int64
	// BreakerTrips counts per-peer breaker openings, including those of
	// peers a later Update removed.
	BreakerTrips int64
	// HandoffQueued / HandoffDrained / HandoffDropped count hinted-handoff
	// writes queued for an unreachable peer, delivered after it returned,
	// and dropped to the byte bound (or to peer removal).
	HandoffQueued  int64
	HandoffDrained int64
	HandoffDropped int64
	// HandoffPending / HandoffBytes describe the queue right now.
	HandoffPending int
	HandoffBytes   int64
	// StaleRefusals counts peer ops this process refused because the
	// sender's ring epoch was older than ours (zombie fencing, serve side).
	StaleRefusals int64
	// Epoch is the tier's current ring epoch; Peers the current endpoint
	// count (including self).
	Epoch int64
	Peers int
}

// hint is one queued hinted-handoff write.
type hint struct {
	key   string
	entry []byte // marshaled rcache.Entry
}

// peerState is the per-peer bookkeeping: breaker plus handoff queue.
type peerState struct {
	breaker *overload.Breaker // nil when disabled
	hints   []*hint
	bytes   int64
}

// Tier is the shared cache tier. All methods are safe for concurrent use.
// A zero-peer tier (no Update yet, or a single-node map) is valid and
// inert: every operation short-circuits to the local caches.
type Tier struct {
	self            string
	opTimeout       time.Duration
	handoffMax      int64
	drainEvery      time.Duration
	breakerThresh   int
	breakerCooldown time.Duration
	client          *http.Client

	local *rcache.Cache

	mu       sync.Mutex
	ring     *cluster.Ring
	replicas int
	epoch    int64
	peers    map[string]*peerState
	hintSize int64 // bytes queued across every peer's hints
	closed   bool

	drainStop chan struct{}
	drainDone chan struct{}

	mHits, mMisses, mRot, mRepairs      *metrics.Counter
	mPuts, mPutBytes, mTimeouts, mTrips *metrics.Counter
	mSkips, mQueued, mDrained, mDropped *metrics.Counter
	mStale                              *metrics.Counter
	mEpoch                              *metrics.Gauge
}

// New builds a tier over the process's local cache; routing arrives
// through Update. The tier starts inert — no peers, epoch 0 — which is
// exactly the degraded mode it falls back to under a full partition.
func New(local *rcache.Cache, opts Options) *Tier {
	if opts.Replicas <= 0 {
		opts.Replicas = DefaultReplicas
	}
	if opts.OpTimeout <= 0 {
		opts.OpTimeout = DefaultOpTimeout
	}
	if opts.HandoffMaxBytes <= 0 {
		opts.HandoffMaxBytes = DefaultHandoffMaxBytes
	}
	if opts.DrainInterval <= 0 {
		opts.DrainInterval = DefaultDrainInterval
	}
	reg := opts.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 4,
			IdleConnTimeout:     30 * time.Second,
		}}
	}
	t := &Tier{
		self:            opts.Self,
		opTimeout:       opts.OpTimeout,
		handoffMax:      opts.HandoffMaxBytes,
		drainEvery:      opts.DrainInterval,
		breakerThresh:   opts.BreakerThreshold,
		breakerCooldown: opts.BreakerCooldown,
		client:          client,
		local:           local,
		replicas:        opts.Replicas,
		peers:           map[string]*peerState{},
		drainStop:       make(chan struct{}),
		drainDone:       make(chan struct{}),

		mHits:     reg.Counter(metrics.MetricPeerHits, "cache lookups answered by a remote peer after verification"),
		mMisses:   reg.Counter(metrics.MetricPeerMisses, "cache lookups that fell through every reachable replica"),
		mRot:      reg.Counter(metrics.MetricPeerRotRefusals, "remote entries refused for a content checksum mismatch"),
		mRepairs:  reg.Counter(metrics.MetricPeerRepairs, "read-repair writes to a replica that missed or rotted"),
		mPuts:     reg.Counter(metrics.MetricPeerPuts, "replicated cache writes delivered to owner peers"),
		mPutBytes: reg.Counter(metrics.MetricPeerPutBytes, "payload bytes shipped in replicated writes"),
		mTimeouts: reg.Counter(metrics.MetricPeerTimeouts, "peer ops abandoned at the per-op deadline"),
		mTrips:    reg.Counter(metrics.MetricPeerBreakerTrips, "per-peer circuit breaker trips"),
		mSkips:    reg.Counter(metrics.MetricPeerBreakerSkips, "peer ops skipped while the peer's breaker was open"),
		mQueued:   reg.Counter(metrics.MetricPeerHandoffQueued, "writes queued as hints for an unreachable peer"),
		mDrained:  reg.Counter(metrics.MetricPeerHandoffDrained, "hints delivered after their peer returned"),
		mDropped:  reg.Counter(metrics.MetricPeerHandoffDropped, "hints dropped to the handoff byte bound"),
		mStale:    reg.Counter(metrics.MetricPeerStaleEpochRefusals, "peer ops refused for a stale sender epoch"),
		mEpoch:    reg.Gauge(metrics.MetricPeerEpoch, "current ring epoch of the shared cache tier"),
	}
	go t.drainLoop()
	return t
}

// SetSelf fixes this process's own cache address once it is known (workers
// bind ephemeral ports, so the address exists only after listen).
func (t *Tier) SetSelf(addr string) {
	t.mu.Lock()
	t.self = addr
	t.mu.Unlock()
}

// Update replaces the tier's routing with a newer peer map, returning
// whether it was applied. A map whose epoch is not strictly newer is
// refused — the fence that keeps a zombie's stale push from regressing the
// ring. Peer state (breaker history, queued hints) survives for endpoints
// present in both maps; hints owed to removed peers are dropped (their
// entries still live in local tiers).
func (t *Tier) Update(pm cluster.PeerMap) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if pm.Epoch <= t.epoch || t.closed {
		return false
	}
	t.epoch = pm.Epoch
	t.mEpoch.Set(pm.Epoch)
	if pm.Replicas > 0 {
		t.replicas = pm.Replicas
	}
	t.ring = cluster.NewRing(pm.Peers...)
	next := make(map[string]*peerState, len(pm.Peers))
	for _, addr := range pm.Peers {
		if addr == t.self {
			continue
		}
		if ps, ok := t.peers[addr]; ok {
			next[addr] = ps
			continue
		}
		ps := &peerState{}
		if t.breakerThresh >= 0 {
			ps.breaker = overload.NewBreaker(t.breakerThresh, t.breakerCooldown)
		}
		next[addr] = ps
	}
	for addr, ps := range t.peers {
		if _, kept := next[addr]; !kept {
			t.hintSize -= ps.bytes
			t.mDropped.Add(int64(len(ps.hints)))
		}
	}
	t.peers = next
	return true
}

// Epoch returns the tier's current ring epoch.
func (t *Tier) Epoch() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.epoch
}

// Enabled reports whether the tier has at least one remote peer to talk to.
func (t *Tier) Enabled() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.peers) > 0
}

// Close stops the drain loop. Queued hints are dropped (counted); local
// caches are untouched.
func (t *Tier) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	for _, ps := range t.peers {
		t.mDropped.Add(int64(len(ps.hints)))
		ps.hints, ps.bytes = nil, 0
	}
	t.hintSize = 0
	t.mu.Unlock()
	close(t.drainStop)
	<-t.drainDone
}

// Stats returns a snapshot of tier activity.
func (t *Tier) Stats() Stats {
	s := Stats{
		Hits:           t.mHits.Value(),
		Misses:         t.mMisses.Value(),
		RotRefusals:    t.mRot.Value(),
		Repairs:        t.mRepairs.Value(),
		Puts:           t.mPuts.Value(),
		PutBytes:       t.mPutBytes.Value(),
		Timeouts:       t.mTimeouts.Value(),
		BreakerSkips:   t.mSkips.Value(),
		BreakerTrips:   t.mTrips.Value(),
		HandoffQueued:  t.mQueued.Value(),
		HandoffDrained: t.mDrained.Value(),
		HandoffDropped: t.mDropped.Value(),
		StaleRefusals:  t.mStale.Value(),
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.HandoffBytes = t.hintSize
	s.Epoch = t.epoch
	if t.ring != nil {
		s.Peers = t.ring.Len()
	}
	for _, ps := range t.peers {
		s.HandoffPending += len(ps.hints)
	}
	return s
}

// owners snapshots the remote owner set for key: the first replicas ring
// owners, self excluded, each paired with its breaker. Also returns the
// current epoch.
func (t *Tier) owners(key string) ([]string, int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ring == nil || len(t.peers) == 0 {
		return nil, t.epoch
	}
	all := t.ring.Owners(key, t.replicas)
	out := make([]string, 0, len(all))
	for _, addr := range all {
		if addr != t.self {
			out = append(out, addr)
		}
	}
	return out, t.epoch
}

// Get returns the entry for key, consulting the local tiers first and then
// the key's remote replicas in ring order. A verified remote hit is
// promoted into the local cache and read-repaired onto any earlier replica
// that missed or served rot. Every failure mode — unreachable peer, per-op
// timeout, shed, stale-epoch refusal, checksum rot — degrades to the next
// replica and finally to a miss; Get never blocks beyond
// replicas × OpTimeout and never returns an unverified entry from the wire.
// The local read counts no result-cache lookup (the memo, Get's caller,
// counts its own), while remote outcomes count on pallas_peer_*.
func (t *Tier) Get(key string) (*rcache.Entry, bool) {
	if e, ok := t.local.Peek(key); ok {
		return e, true
	}
	e, ok := t.FetchRemote(key)
	if !ok {
		return nil, false
	}
	_ = t.local.Put(e) // promote; a persist fault only costs durability
	return e, true
}

// Peek reads only the local tiers, counting nothing.
func (t *Tier) Peek(key string) (*rcache.Entry, bool) { return t.local.Peek(key) }

// FetchRemote consults only the key's remote replicas (no local lookup, no
// local promotion), for callers that compose the tier with their own local
// layer — the server's singleflight runs FetchRemote inside GetOrCompute,
// whose own Put promotes the result. Verification and read-repair behave
// as in Get.
func (t *Tier) FetchRemote(key string) (*rcache.Entry, bool) {
	owners, epoch := t.owners(key)
	if len(owners) == 0 {
		return nil, false
	}
	var repair []string // replicas owed a read-repair copy
	for _, addr := range owners {
		ps := t.peer(addr)
		if ps == nil {
			continue
		}
		if ps.breaker != nil && !ps.breaker.Allow() {
			t.mSkips.Inc()
			continue
		}
		e, outcome := t.fetch(addr, key, epoch)
		t.settle(ps, outcome)
		switch outcome {
		case fetchHit:
			t.mHits.Inc()
			t.readRepair(key, e, repair, epoch)
			return e, true
		case fetchMiss, fetchRot:
			repair = append(repair, addr)
		}
	}
	t.mMisses.Inc()
	return nil, false
}

// Put stores an entry locally and replicates it to the key's remote
// owners. The local write is authoritative — its error (persistence fault)
// is the return value; replication failures are absorbed into hinted
// handoff and surface only as counters. The disk write and the
// replication share one encoding of the entry (rcache.Entry.Marshal), made
// only if one of them needs it.
func (t *Tier) Put(e *rcache.Entry) error {
	var (
		b    []byte
		err  error
		done bool
	)
	encode := func() ([]byte, error) {
		if !done {
			b, err = e.Marshal()
			done = true
		}
		return b, err
	}
	perr := t.local.PutEncoded(e, encode)
	t.replicateRemote(e.Key, encode)
	return perr
}

// ReplicateRemote delivers an entry to its remote ring owners without
// touching the local tiers, for callers whose local layer already holds it.
// Unreachable owners are owed a hinted handoff.
func (t *Tier) ReplicateRemote(e *rcache.Entry) { t.replicateRemote(e.Key, e.Marshal) }

// replicateRemote is ReplicateRemote with the entry's bytes made by
// encode, which runs only when the key has remote owners.
func (t *Tier) replicateRemote(key string, encode func() ([]byte, error)) {
	owners, epoch := t.owners(key)
	if len(owners) == 0 {
		return
	}
	b, err := encode()
	if err != nil {
		return
	}
	for _, addr := range owners {
		t.replicate(addr, key, b, epoch)
	}
}

// replicate delivers one entry to one owner, queueing a hint on any
// failure (breaker-open included: a tripped peer is by definition owed its
// writes for later).
func (t *Tier) replicate(addr, key string, entry []byte, epoch int64) {
	ps := t.peer(addr)
	if ps == nil {
		return
	}
	if ps.breaker != nil && !ps.breaker.Allow() {
		t.mSkips.Inc()
		t.enqueueHint(addr, &hint{key: key, entry: entry})
		return
	}
	outcome := t.sendPut(addr, key, entry, epoch)
	t.settle(ps, outcome)
	if outcome == fetchHit {
		t.mPuts.Inc()
		t.mPutBytes.Add(int64(len(entry)))
		return
	}
	t.enqueueHint(addr, &hint{key: key, entry: entry})
}

// readRepair pushes a verified entry to the replicas that should have had
// it but answered miss or rot, restoring the replication factor.
func (t *Tier) readRepair(key string, e *rcache.Entry, owed []string, epoch int64) {
	if len(owed) == 0 {
		return
	}
	b, err := e.Marshal()
	if err != nil {
		return
	}
	for _, addr := range owed {
		ps := t.peer(addr)
		if ps == nil {
			continue
		}
		if ps.breaker != nil && !ps.breaker.Allow() {
			continue
		}
		outcome := t.sendPut(addr, key, b, epoch)
		t.settle(ps, outcome)
		if outcome == fetchHit {
			t.mRepairs.Inc()
		}
	}
}

func (t *Tier) peer(addr string) *peerState {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.peers[addr]
}

// settle records an op outcome against the peer's breaker. Hits and misses
// both prove the peer works (Success); timeouts and transport errors are
// failures; stale/shed refusals prove nothing about the peer's data path
// (Inconclusive).
func (t *Tier) settle(ps *peerState, outcome int) {
	if ps.breaker == nil {
		return
	}
	before := ps.breaker.Trips()
	switch outcome {
	case fetchHit, fetchMiss:
		ps.breaker.Success()
	case fetchRefused:
		ps.breaker.Inconclusive()
	default:
		ps.breaker.Failure()
	}
	if d := ps.breaker.Trips() - before; d > 0 {
		t.mTrips.Add(d)
	}
}

// Fetch / put outcomes.
const (
	fetchHit     = iota // verified entry (get) or acknowledged write (put)
	fetchMiss           // peer healthy, no entry
	fetchRot            // entry refused: checksum mismatch or malformed
	fetchRefused        // stale epoch (409) or shed (503/429)
	fetchErr            // transport failure or per-op timeout
)

// fetch performs one remote get with the per-op deadline and full
// verification. It returns an entry only when the peer's bytes re-verify
// against their embedded content checksum.
func (t *Tier) fetch(addr, key string, epoch int64) (*rcache.Entry, int) {
	frame, err := cluster.EncodeFrame(cluster.FramePeerGet, cluster.PeerGetPayload{
		Key: key, Epoch: epoch, From: t.self,
	})
	if err != nil {
		return nil, fetchErr
	}
	switch f := failpoint.Net(failpoint.PeerGet, addr); f.Act {
	case failpoint.NetDrop:
		return nil, fetchErr
	case failpoint.NetCorrupt:
		frame = failpoint.Corrupt(frame)
	case failpoint.NetDrip:
		time.Sleep(f.Sleep) // one stalled chunk; the deadline does the rest
	}
	ctx, cancel := context.WithTimeout(context.Background(), t.opTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+addr+GetPath, bytes.NewReader(frame))
	if err != nil {
		return nil, fetchErr
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := t.client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			t.mTimeouts.Inc()
		}
		return nil, fetchErr
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusConflict, http.StatusServiceUnavailable, http.StatusTooManyRequests:
		return nil, fetchRefused
	default:
		return nil, fetchErr
	}
	var pe cluster.PeerEntryPayload
	if err := cluster.DecodeFrame(resp.Body, cluster.FramePeerEntry, &pe); err != nil {
		if ctx.Err() != nil {
			t.mTimeouts.Inc()
			return nil, fetchErr
		}
		return nil, fetchErr
	}
	if !pe.Found {
		return nil, fetchMiss
	}
	e, ok := verifyEntry(key, pe.Entry)
	if !ok {
		t.mRot.Inc()
		return nil, fetchRot
	}
	if e == nil {
		return nil, fetchMiss // unverifiable (no sum): not rot, not a hit
	}
	return e, fetchHit
}

// verifyEntry validates a wire entry: well-formed JSON, key match, and a
// content checksum that re-verifies over the entry's own bytes. Returns
// (nil, true) for a well-formed entry without a checksum — unverifiable is
// a miss, not rot — and (nil, false) for damage.
func verifyEntry(key string, raw []byte) (*rcache.Entry, bool) {
	var e rcache.Entry
	if json.Unmarshal(raw, &e) != nil || e.Key != key || len(e.Report) == 0 {
		return nil, false
	}
	if e.Sum == "" {
		return nil, true
	}
	if rcache.ContentSum(e.Report, e.Paths) != e.Sum {
		return nil, false
	}
	return &e, true
}

// sendPut performs one remote put with the per-op deadline, returning a
// fetch outcome (fetchHit means acknowledged).
func (t *Tier) sendPut(addr, key string, entry []byte, epoch int64) int {
	frame, err := cluster.EncodeFrame(cluster.FramePeerPut, cluster.PeerPutPayload{
		Key: key, Entry: entry, Epoch: epoch, From: t.self,
	})
	if err != nil {
		return fetchErr
	}
	switch f := failpoint.Net(failpoint.PeerPut, addr); f.Act {
	case failpoint.NetDrop:
		return fetchErr
	case failpoint.NetCorrupt:
		frame = failpoint.Corrupt(frame)
	case failpoint.NetDrip:
		time.Sleep(f.Sleep)
	}
	ctx, cancel := context.WithTimeout(context.Background(), t.opTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+addr+PutPath, bytes.NewReader(frame))
	if err != nil {
		return fetchErr
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := t.client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			t.mTimeouts.Inc()
		}
		return fetchErr
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
		return fetchHit
	case http.StatusConflict, http.StatusServiceUnavailable, http.StatusTooManyRequests:
		return fetchRefused
	default:
		return fetchErr
	}
}

// enqueueHint queues a write owed to an unreachable peer, dropping the
// oldest hints across the tier when the byte bound overflows.
func (t *Tier) enqueueHint(addr string, h *hint) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ps, ok := t.peers[addr]
	if !ok || t.closed {
		return
	}
	// Coalesce: a newer write of the same key supersedes the queued one.
	for i, old := range ps.hints {
		if old.key == h.key {
			ps.bytes += int64(len(h.entry)) - int64(len(old.entry))
			t.hintSize += int64(len(h.entry)) - int64(len(old.entry))
			ps.hints[i] = h
			return
		}
	}
	ps.hints = append(ps.hints, h)
	ps.bytes += int64(len(h.entry))
	t.hintSize += int64(len(h.entry))
	t.mQueued.Inc()
	for t.hintSize > t.handoffMax {
		if !t.dropOldestLocked() {
			break
		}
	}
}

// dropOldestLocked drops the single oldest hint across all peers. t.mu held.
func (t *Tier) dropOldestLocked() bool {
	var victim *peerState
	for _, ps := range t.peers {
		if len(ps.hints) > 0 && (victim == nil || len(ps.hints) > len(victim.hints)) {
			victim = ps
		}
	}
	if victim == nil {
		return false
	}
	h := victim.hints[0]
	victim.hints = victim.hints[1:]
	victim.bytes -= int64(len(h.entry))
	t.hintSize -= int64(len(h.entry))
	t.mDropped.Inc()
	return true
}

// drainLoop periodically retries queued hints against their peers. One
// failed delivery stops that peer's drain for the tick (the breaker and
// the next tick handle the rest).
func (t *Tier) drainLoop() {
	defer close(t.drainDone)
	ticker := time.NewTicker(t.drainEvery)
	defer ticker.Stop()
	for {
		select {
		case <-t.drainStop:
			return
		case <-ticker.C:
			t.DrainOnce()
		}
	}
}

// DrainOnce attempts one delivery pass over every peer's queued hints,
// returning how many hints it delivered. Exported so tests (and the tier's
// own loop) can drain deterministically.
func (t *Tier) DrainOnce() int {
	t.mu.Lock()
	type work struct {
		addr string
		ps   *peerState
	}
	var peers []work
	for addr, ps := range t.peers {
		if len(ps.hints) > 0 {
			peers = append(peers, work{addr, ps})
		}
	}
	epoch := t.epoch
	t.mu.Unlock()

	delivered := 0
	for _, w := range peers {
		for {
			t.mu.Lock()
			if len(w.ps.hints) == 0 {
				t.mu.Unlock()
				break
			}
			h := w.ps.hints[0]
			t.mu.Unlock()
			if w.ps.breaker != nil && !w.ps.breaker.Allow() {
				break
			}
			outcome := t.sendPut(w.addr, h.key, h.entry, epoch)
			t.settle(w.ps, outcome)
			if outcome != fetchHit {
				break
			}
			t.mu.Lock()
			// Pop h if still at the head (a concurrent coalesce may have
			// replaced it; then the replacement is owed its own delivery).
			if len(w.ps.hints) > 0 && w.ps.hints[0] == h {
				w.ps.hints = w.ps.hints[1:]
				w.ps.bytes -= int64(len(h.entry))
				t.hintSize -= int64(len(h.entry))
				t.mDrained.Inc()
				delivered++
			}
			t.mu.Unlock()
			t.mPutBytes.Add(int64(len(h.entry)))
		}
	}
	return delivered
}

// ServeGet answers a peer's get against the local tiers (no remote
// recursion). stale reports that the sender's epoch is older than ours —
// the caller must refuse with 409 so a zombie stops trusting its routing.
func (t *Tier) ServeGet(key string, senderEpoch int64) (entry []byte, found, stale bool) {
	if senderEpoch < t.Epoch() {
		t.mStale.Inc()
		return nil, false, true
	}
	e, ok := t.local.Get(key)
	if !ok {
		return nil, false, false
	}
	b, err := e.Marshal()
	if err != nil {
		return nil, false, false
	}
	return b, true, false
}

// ServePut applies a peer's replicated write to the local tiers after full
// validation: malformed or checksum-rotted entries are refused (counted as
// rot) so a corrupting peer cannot poison this replica. stale works as in
// ServeGet.
func (t *Tier) ServePut(key string, entry []byte, senderEpoch int64) (stale bool, err error) {
	if senderEpoch < t.Epoch() {
		t.mStale.Inc()
		return true, nil
	}
	e, ok := verifyEntry(key, entry)
	if !ok || e == nil {
		// No checksum is also refused here: replication is our own wire,
		// and every entry we produce carries a sum — an unverifiable
		// replicated write is either damage or a protocol violation.
		t.mRot.Inc()
		return false, fmt.Errorf("peer: put refused: entry failed verification")
	}
	_ = t.local.Put(e) // a persist fault costs durability, not correctness
	return false, nil
}
