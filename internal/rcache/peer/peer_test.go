package peer

// Tier semantics under a live (httptest-backed) wire: routing, end-to-end
// verification, read repair, hinted handoff, epoch fencing, and breaker
// isolation. Each "node" is a real Tier serving the real frame protocol, so
// these tests cover the same code paths the server handlers drive.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pallas/internal/cluster"
	"pallas/internal/incr"
	"pallas/internal/metrics"
	"pallas/internal/paths"
	"pallas/internal/rcache"
)

// node is one tier plus the HTTP endpoints a real worker would host for it.
type node struct {
	tier  *Tier
	cache *rcache.Cache
	addr  string
	srv   *httptest.Server
}

// serveTier exposes a tier's ServeGet/ServePut over the real frame wire —
// a minimal stand-in for internal/server's peercache handlers.
func serveTier(t *Tier) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(GetPath, func(w http.ResponseWriter, r *http.Request) {
		var get cluster.PeerGetPayload
		if err := cluster.DecodeFrame(r.Body, cluster.FramePeerGet, &get); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		entry, found, stale := t.ServeGet(get.Key, get.Epoch)
		if stale {
			http.Error(w, "stale epoch", http.StatusConflict)
			return
		}
		cluster.WriteFrame(w, cluster.FramePeerEntry, cluster.PeerEntryPayload{
			Key: get.Key, Found: found, Entry: entry, Epoch: t.Epoch(),
		})
	})
	mux.HandleFunc(PutPath, func(w http.ResponseWriter, r *http.Request) {
		var put cluster.PeerPutPayload
		if err := cluster.DecodeFrame(r.Body, cluster.FramePeerPut, &put); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		stale, err := t.ServePut(put.Key, put.Entry, put.Epoch)
		if stale {
			http.Error(w, "stale epoch", http.StatusConflict)
			return
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusOK)
	})
	return mux
}

func newNode(t *testing.T, opts Options) *node {
	t.Helper()
	return newNodeIn(t, "", opts)
}

// newNodeIn is newNode over a cache whose persistent tier is dir ("" for
// none).
func newNodeIn(t *testing.T, dir string, opts Options) *node {
	t.Helper()
	c, err := rcache.Open(rcache.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if opts.Registry == nil {
		opts.Registry = metrics.NewRegistry()
	}
	if opts.DrainInterval == 0 {
		opts.DrainInterval = time.Hour // tests drain explicitly via DrainOnce
	}
	tier := New(c, opts)
	srv := httptest.NewServer(serveTier(tier))
	addr := strings.TrimPrefix(srv.URL, "http://")
	tier.SetSelf(addr)
	t.Cleanup(func() { srv.Close(); tier.Close() })
	return &node{tier: tier, cache: c, addr: addr, srv: srv}
}

// mesh updates every node with one map over all the nodes' addresses.
func mesh(epoch int64, replicas int, nodes ...*node) {
	addrs := make([]string, len(nodes))
	for i, n := range nodes {
		addrs[i] = n.addr
	}
	for _, n := range nodes {
		n.tier.Update(cluster.PeerMap{Epoch: epoch, Peers: addrs, Replicas: replicas})
	}
}

func mkEntry(key, report string) *rcache.Entry {
	e := &rcache.Entry{Key: key, Unit: key[:8] + ".c", Report: []byte(report), Warnings: 1}
	e.Sum = rcache.ContentSum(e.Report, e.Paths)
	return e
}

func key64(seed string) string { return (seed + strings.Repeat("0", 64))[:64] }

// keyWithOwners searches for a key whose remote owner set, from viewer's
// perspective, is exactly want (in ring order).
func keyWithOwners(t *testing.T, viewer *node, want ...string) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		k := key64(fmt.Sprintf("%x", i))
		owners, _ := viewer.tier.owners(k)
		if len(owners) != len(want) {
			continue
		}
		match := true
		for j := range want {
			if owners[j] != want[j] {
				match = false
				break
			}
		}
		if match {
			return k
		}
	}
	t.Fatalf("no key found with owners %v", want)
	return ""
}

func TestInertTierDegradesToLocal(t *testing.T) {
	n := newNode(t, Options{})
	if n.tier.Enabled() {
		t.Fatal("tier with no peers reports enabled")
	}
	k := key64("aa")
	if _, ok := n.tier.Get(k); ok {
		t.Fatal("inert tier invented an entry")
	}
	e := mkEntry(k, `{"w":1}`)
	if err := n.tier.Put(e); err != nil {
		t.Fatalf("inert put: %v", err)
	}
	if got, ok := n.tier.Get(k); !ok || got.Key != k {
		t.Fatal("local round trip through inert tier failed")
	}
	if st := n.tier.Stats(); st.Puts != 0 || st.Hits != 0 {
		t.Fatalf("inert tier counted remote activity: %+v", st)
	}
}

func TestRemoteHitVerifiedAndPromoted(t *testing.T) {
	a := newNode(t, Options{})
	b := newNode(t, Options{})
	mesh(1, 2, a, b)

	k := key64("ab")
	e := mkEntry(k, `{"warnings":["w"]}`)
	if err := a.cache.Put(e); err != nil {
		t.Fatal(err)
	}
	got, ok := b.tier.Get(k)
	if !ok || string(got.Report) != string(e.Report) || got.Sum != e.Sum {
		t.Fatalf("remote hit: ok=%v entry=%+v", ok, got)
	}
	if st := b.tier.Stats(); st.Hits != 1 || st.RotRefusals != 0 {
		t.Fatalf("stats after verified hit: %+v", st)
	}
	// Promoted: a second Get is served locally, no new remote hit.
	if _, ok := b.tier.Get(k); !ok {
		t.Fatal("promoted entry missing")
	}
	if st := b.tier.Stats(); st.Hits != 1 {
		t.Fatalf("second get went remote: %+v", st)
	}
}

func TestRottedEntryRefusedAsMiss(t *testing.T) {
	a := newNode(t, Options{})
	b := newNode(t, Options{})
	mesh(1, 2, a, b)

	k := key64("cd")
	rot := mkEntry(k, `{"warnings":["w"]}`)
	rot.Sum = "deadbeef" // sum no longer matches the content
	if err := a.cache.Put(rot); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.tier.Get(k); ok {
		t.Fatal("rotted remote entry was accepted")
	}
	st := b.tier.Stats()
	if st.RotRefusals != 1 || st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("rot must count refusal+miss, got %+v", st)
	}
}

func TestReplicationAndReadRepair(t *testing.T) {
	a := newNode(t, Options{})
	b := newNode(t, Options{})
	c := newNode(t, Options{})
	mesh(1, 2, a, b, c)

	// A key whose owners from c's view are [a, b]: a misses, b will hit, and
	// the hit must repair a.
	k := keyWithOwners(t, c, a.addr, b.addr)
	e := mkEntry(k, `{"warnings":[]}`)
	if err := b.cache.Put(e); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.tier.Get(k); !ok {
		t.Fatal("second replica should have answered")
	}
	st := c.tier.Stats()
	if st.Hits != 1 || st.Repairs != 1 {
		t.Fatalf("want 1 hit + 1 repair, got %+v", st)
	}
	if _, ok := a.cache.Get(k); !ok {
		t.Fatal("read repair did not restore the first replica")
	}

	// Put replicates to both remote owners (opposite ring order, so it is a
	// different key than the read-repair one).
	k2 := keyWithOwners(t, c, b.addr, a.addr)
	e2 := mkEntry(k2, `{"warnings":["x"]}`)
	if err := c.tier.Put(e2); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.cache.Get(k2); !ok {
		t.Fatal("replicated put missing on first owner")
	}
	if _, ok := b.cache.Get(k2); !ok {
		t.Fatal("replicated put missing on second owner")
	}
}

func TestEpochFencing(t *testing.T) {
	n := newNode(t, Options{})
	if !n.tier.Update(cluster.PeerMap{Epoch: 5, Peers: []string{n.addr, "127.0.0.1:1"}, Replicas: 2}) {
		t.Fatal("fresh epoch refused")
	}
	if n.tier.Update(cluster.PeerMap{Epoch: 5, Peers: []string{n.addr}}) {
		t.Fatal("equal epoch applied")
	}
	if n.tier.Update(cluster.PeerMap{Epoch: 4, Peers: []string{n.addr}}) {
		t.Fatal("older epoch applied")
	}
	if n.tier.Epoch() != 5 {
		t.Fatalf("epoch = %d, want 5", n.tier.Epoch())
	}

	// Serve side: a sender with an older epoch is refused (zombie fencing);
	// a newer one is served.
	if _, _, stale := n.tier.ServeGet(key64("aa"), 4); !stale {
		t.Fatal("older sender epoch not refused")
	}
	if _, _, stale := n.tier.ServeGet(key64("aa"), 6); stale {
		t.Fatal("newer sender epoch refused")
	}
	if stale, _ := n.tier.ServePut(key64("aa"), []byte(`{}`), 3); !stale {
		t.Fatal("older sender put not refused")
	}
	if st := n.tier.Stats(); st.StaleRefusals != 2 {
		t.Fatalf("StaleRefusals = %d, want 2", st.StaleRefusals)
	}
}

func TestServePutRefusesRotAndSumless(t *testing.T) {
	n := newNode(t, Options{})
	k := key64("ee")

	rot := mkEntry(k, `{"warnings":[]}`)
	rot.Sum = "feedface"
	if _, err := n.tier.ServePut(k, mustJSON(t, rot), 0); err == nil {
		t.Fatal("rotted replicated write accepted")
	}
	sumless := &rcache.Entry{Key: k, Report: []byte(`{"warnings":[]}`)}
	if _, err := n.tier.ServePut(k, mustJSON(t, sumless), 0); err == nil {
		t.Fatal("sumless replicated write accepted (replication wire always carries sums)")
	}
	if _, ok := n.cache.Get(k); ok {
		t.Fatal("refused write reached the local cache")
	}
	good := mkEntry(k, `{"warnings":[]}`)
	if _, err := n.tier.ServePut(k, mustJSON(t, good), 0); err != nil {
		t.Fatalf("valid replicated write refused: %v", err)
	}
	if _, ok := n.cache.Get(k); !ok {
		t.Fatal("valid write missing from local cache")
	}
	if st := n.tier.Stats(); st.RotRefusals != 2 {
		t.Fatalf("RotRefusals = %d, want 2", st.RotRefusals)
	}
}

func TestHintedHandoffDrainsWhenPeerReturns(t *testing.T) {
	// Reserve an address for the peer, then shut it down before any write.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	writer := newNode(t, Options{BreakerThreshold: -1})
	peerCache, err := rcache.Open(rcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	peerTier := New(peerCache, Options{Registry: metrics.NewRegistry(), DrainInterval: time.Hour})
	defer peerTier.Close()
	for _, tr := range []*Tier{writer.tier, peerTier} {
		tr.Update(cluster.PeerMap{Epoch: 1, Peers: []string{writer.addr, deadAddr}, Replicas: 2})
	}

	k := key64("ba")
	e := mkEntry(k, `{"warnings":["h"]}`)
	writer.tier.Put(e)
	st := writer.tier.Stats()
	if st.HandoffQueued != 1 || st.HandoffPending != 1 {
		t.Fatalf("write to dead peer must queue a hint, got %+v", st)
	}

	// Coalesce: a newer write of the same key replaces the queued hint.
	writer.tier.Put(mkEntry(k, `{"warnings":["h2"]}`))
	if st := writer.tier.Stats(); st.HandoffQueued != 1 || st.HandoffPending != 1 {
		t.Fatalf("same-key hint must coalesce, got %+v", st)
	}

	// Peer returns on the reserved address; a drain pass delivers the hint.
	ln2, err := net.Listen("tcp", deadAddr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", deadAddr, err)
	}
	revived := &http.Server{Handler: serveTier(peerTier)}
	go revived.Serve(ln2)
	defer revived.Close()
	peerTier.SetSelf(deadAddr)

	if n := writer.tier.DrainOnce(); n != 1 {
		t.Fatalf("DrainOnce delivered %d, want 1", n)
	}
	got, ok := peerCache.Get(k)
	if !ok || string(got.Report) != `{"warnings":["h2"]}` {
		t.Fatalf("drained hint must carry the latest write, got ok=%v %+v", ok, got)
	}
	st = writer.tier.Stats()
	if st.HandoffDrained != 1 || st.HandoffPending != 0 {
		t.Fatalf("after drain: %+v", st)
	}
}

func TestHandoffByteBoundDropsOldest(t *testing.T) {
	n := newNode(t, Options{BreakerThreshold: -1, HandoffMaxBytes: 600})
	n.tier.Update(cluster.PeerMap{Epoch: 1, Peers: []string{n.addr, "127.0.0.1:1"}, Replicas: 2})
	for i := 0; i < 10; i++ {
		n.tier.ReplicateRemote(mkEntry(key64(fmt.Sprintf("%02x", i)), `{"warnings":["padpadpadpad"]}`))
	}
	st := n.tier.Stats()
	if st.HandoffDropped == 0 {
		t.Fatalf("byte bound never dropped: %+v", st)
	}
	if st.HandoffBytes > 600 {
		t.Fatalf("HandoffBytes %d exceeds bound", st.HandoffBytes)
	}
	if st.HandoffPending == 0 {
		t.Fatal("bound must keep the newest hints, not empty the queue")
	}
}

func TestBreakerSkipsDeadPeerAfterTrips(t *testing.T) {
	n := newNode(t, Options{BreakerThreshold: 2, BreakerCooldown: time.Hour, OpTimeout: 50 * time.Millisecond})
	n.tier.Update(cluster.PeerMap{Epoch: 1, Peers: []string{n.addr, "127.0.0.1:1"}, Replicas: 2})

	k := key64("dd")
	for i := 0; i < 4; i++ {
		n.tier.Get(k)
	}
	st := n.tier.Stats()
	if st.BreakerTrips == 0 {
		t.Fatalf("dead peer never tripped its breaker: %+v", st)
	}
	if st.BreakerSkips == 0 {
		t.Fatalf("tripped breaker never skipped an op: %+v", st)
	}
	if st.Misses != 4 {
		t.Fatalf("every lookup must still complete as a miss, got %+v", st)
	}
}

func TestUpdateDropsHintsOfRemovedPeers(t *testing.T) {
	n := newNode(t, Options{BreakerThreshold: -1})
	gone := "127.0.0.1:1"
	n.tier.Update(cluster.PeerMap{Epoch: 1, Peers: []string{n.addr, gone}, Replicas: 2})
	n.tier.ReplicateRemote(mkEntry(key64("aa"), `{"w":1}`))
	if st := n.tier.Stats(); st.HandoffPending != 1 {
		t.Fatalf("setup: want 1 pending hint, got %+v", st)
	}
	n.tier.Update(cluster.PeerMap{Epoch: 2, Peers: []string{n.addr}, Replicas: 2})
	st := n.tier.Stats()
	if st.HandoffPending != 0 || st.HandoffDropped != 1 || st.HandoffBytes != 0 {
		t.Fatalf("removed peer's hints must drop, got %+v", st)
	}
}

// TestMemoRecordsShareTheOneStore: the tier has one key space. A memo
// record put through node a's tier lands in a's one cache, replicates into
// b's, and b's memo finds it; a replicated write from an older peer that
// still names a "space" lands in the same store.
func TestMemoRecordsShareTheOneStore(t *testing.T) {
	a := newNode(t, Options{})
	b := newNode(t, Options{})
	mesh(1, 2, a, b)
	memoA := incr.Open(incr.Options{Backing: a.tier})
	memoB := incr.Open(incr.Options{Backing: b.tier})

	k := key64("fe")
	fp := &paths.FuncPaths{Fn: "f", Signature: "f()"}
	memoA.PutFunc(k, "u.c", "f", "fp1", fp)
	if _, ok := a.cache.Peek(k); !ok {
		t.Fatal("memo record missing from the writer's cache")
	}
	if _, ok := b.cache.Peek(k); !ok {
		t.Fatal("memo record not replicated into the peer's cache")
	}
	if got := memoB.GetFunc(k, "u.c", "f", "fp1"); got == nil || got.Fn != "f" {
		t.Fatalf("peer memo lookup = %+v, want the record a stored", got)
	}

	k2 := key64("fd")
	frame, err := cluster.EncodeFrame(cluster.FramePeerPut, map[string]any{
		"key": k2, "space": "incr", "entry": json.RawMessage(mustJSON(t, mkEntry(k2, `{"funcs":{}}`))), "epoch": 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(b.srv.URL+PutPath, "application/octet-stream", bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("put naming a space: status %d", resp.StatusCode)
	}
	if _, ok := b.cache.Peek(k2); !ok {
		t.Fatal("put naming a space did not land in the one store")
	}
}

// TestLiveMemoRecordCrossesThePeerWire: a function record is held live in
// its writer's cache and leaves the process as its pinned encoding. It
// replicates to the peer as those bytes, and ServeGet answers with them and
// their sum from either node: encoded from the live value on the writer,
// as stored on the replica.
func TestLiveMemoRecordCrossesThePeerWire(t *testing.T) {
	a := newNode(t, Options{})
	b := newNode(t, Options{})
	mesh(1, 2, a, b)
	fp := &paths.FuncPaths{Fn: "fast", Signature: "fast(a)", Paths: []*paths.ExecPath{{
		Fn: "fast", Signature: "fast(a)", Blocks: []int{0, 1},
		Out: &paths.Output{Expr: "a", Sym: "a", Line: 3},
	}}}
	k := key64("fc")
	incr.Open(incr.Options{Backing: a.tier}).PutFunc(k, "u.c", "fast", "fp1", fp)
	if e, _ := a.cache.Peek(k); e == nil || e.Live == nil {
		t.Fatal("the writer's cache does not hold the record live")
	}
	want := mustJSON(t, &incr.FuncRecord{Version: incr.FuncRecordVersion, Fn: "fast", Fingerprint: "fp1", Paths: fp})
	for _, n := range []*node{a, b} {
		raw, found, stale := n.tier.ServeGet(k, 1)
		if !found || stale {
			t.Fatalf("%s: ServeGet found=%v stale=%v", n.addr, found, stale)
		}
		var e rcache.Entry
		if err := json.Unmarshal(raw, &e); err != nil {
			t.Fatal(err)
		}
		// b452d7a8 is the sum TestIncrRecordFormatPinned pins for this record.
		if !bytes.Equal(e.Report, want) || e.Sum != "b452d7a8" {
			t.Fatalf("%s: served report %s sum %s, want the pinned record", n.addr, e.Report, e.Sum)
		}
	}
}

// countingValue is a live value that counts its encodings.
type countingValue struct{ n atomic.Int32 }

func (v *countingValue) Encode() ([]byte, error) {
	v.n.Add(1)
	return []byte(`{"v":1}`), nil
}

func (v *countingValue) Size() int64 { return 8 }

// TestPutEncodesALiveValueOnce: a worker with a disk tier and a remote
// owner writes a live entry to disk and replicates it from one encoding,
// and both copies hold it.
func TestPutEncodesALiveValueOnce(t *testing.T) {
	dir := t.TempDir()
	a := newNodeIn(t, dir, Options{})
	b := newNode(t, Options{})
	mesh(1, 2, a, b)
	v := &countingValue{}
	k := key64("ab")
	if err := a.tier.Put(&rcache.Entry{Key: k, Unit: "u.c", Live: v}); err != nil {
		t.Fatal(err)
	}
	if n := v.n.Load(); n != 1 {
		t.Fatalf("Put encoded the live value %d times, want 1", n)
	}
	reopened, err := rcache.Open(rcache.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*rcache.Cache{"disk": reopened, "replica": b.cache} {
		e, ok := c.Get(k)
		if !ok || string(e.Report) != `{"v":1}` || e.Sum != rcache.ContentSum(e.Report, nil) {
			t.Fatalf("%s: entry %+v, want the encoded value and its sum", name, e)
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// captureTier is an incr.Backing that records the last entry put.
type captureTier struct{ last *rcache.Entry }

func (c *captureTier) Get(string) (*rcache.Entry, bool)  { return nil, false }
func (c *captureTier) Peek(string) (*rcache.Entry, bool) { return nil, false }
func (c *captureTier) Put(e *rcache.Entry) error         { c.last = e; return nil }

// TestVerifyEntryIncrUnitRecord: a memo unit verdict — one JSON record in
// Report, no path database — crosses the wire intact under the end-to-end
// checksum, and a record whose bytes no longer match its sum is refused as
// rot.
func TestVerifyEntryIncrUnitRecord(t *testing.T) {
	ct := &captureTier{}
	st := incr.Open(incr.Options{Registry: metrics.NewRegistry(), Backing: ct})
	key := key64("ab")
	st.PutUnit(key, &incr.UnitRecord{Unit: "u.c", Fingerprint: "ufp", Report: json.RawMessage(`{"unit":"u.c"}`)})
	if ct.last == nil {
		t.Fatal("unit verdict never reached the shared tier")
	}

	raw, _ := json.Marshal(ct.last)
	got, ok := verifyEntry(key, raw)
	if !ok || got == nil {
		t.Fatalf("unit verdict refused by the wire check: ok=%v entry=%v", ok, got)
	}
	if string(got.Report) != string(ct.last.Report) || len(got.Paths) != 0 {
		t.Fatalf("unit verdict drifted over the wire: report %s, paths %q", got.Report, got.Paths)
	}

	mut := *ct.last
	mut.Report = json.RawMessage(strings.Replace(string(mut.Report), `"u.c"`, `"v.c"`, 1))
	raw, _ = json.Marshal(&mut)
	if got, ok := verifyEntry(key, raw); ok || got != nil {
		t.Fatal("unit verdict whose bytes no longer match its sum was accepted")
	}
}

// TestHandoffDrainedCountsEachHintOnce: a hint replaced by a same-key
// coalesce while its delivery is on the wire is not counted as drained; only
// the hint actually popped from the queue is, so the registry counter and
// Stats().HandoffDrained agree.
func TestHandoffDrainedCountsEachHintOnce(t *testing.T) {
	reg := metrics.NewRegistry()
	writer := newNode(t, Options{BreakerThreshold: -1, Registry: reg})
	peerCache, err := rcache.Open(rcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	peerTier := New(peerCache, Options{Registry: metrics.NewRegistry(), DrainInterval: time.Hour})
	defer peerTier.Close()

	k := key64("c0")
	var p *httptest.Server
	var up, coalesced atomic.Bool
	inner := serveTier(peerTier)
	p = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !up.Load() {
			http.Error(w, "down", http.StatusInternalServerError)
			return
		}
		if coalesced.CompareAndSwap(false, true) {
			// A newer write of the same key lands while this delivery is in
			// flight: the queued head is replaced, not delivered.
			b := mustJSON(t, mkEntry(k, `{"warnings":["new"]}`))
			writer.tier.enqueueHint(strings.TrimPrefix(p.URL, "http://"), &hint{key: k, entry: b})
		}
		inner.ServeHTTP(w, r)
	}))
	defer p.Close()
	peerAddr := strings.TrimPrefix(p.URL, "http://")
	writer.tier.Update(cluster.PeerMap{Epoch: 1, Peers: []string{writer.addr, peerAddr}, Replicas: 2})

	writer.tier.ReplicateRemote(mkEntry(k, `{"warnings":["old"]}`))
	if st := writer.tier.Stats(); st.HandoffPending != 1 {
		t.Fatalf("setup: want 1 pending hint, got %+v", st)
	}
	up.Store(true)
	if n := writer.tier.DrainOnce(); n != 1 {
		t.Fatalf("DrainOnce delivered %d, want 1", n)
	}
	if got, ok := peerCache.Get(k); !ok || string(got.Report) != `{"warnings":["new"]}` {
		t.Fatalf("peer must end with the newest write, got ok=%v %+v", ok, got)
	}
	st := writer.tier.Stats()
	drained := reg.Counter(metrics.MetricPeerHandoffDrained, "").Value()
	if st.HandoffDrained != 1 || drained != 1 || st.HandoffPending != 0 {
		t.Fatalf("drained: Stats %d, counter %d, want 1 and 1 (pending %d)", st.HandoffDrained, drained, st.HandoffPending)
	}
}

// TestBreakerTripsSurvivePeerRemoval: an Update that drops a peer keeps that
// peer's breaker trips in Stats(), which reads the cumulative counter.
func TestBreakerTripsSurvivePeerRemoval(t *testing.T) {
	reg := metrics.NewRegistry()
	n := newNode(t, Options{BreakerThreshold: 2, BreakerCooldown: time.Hour, OpTimeout: 50 * time.Millisecond, Registry: reg})
	n.tier.Update(cluster.PeerMap{Epoch: 1, Peers: []string{n.addr, "127.0.0.1:1"}, Replicas: 2})
	for i := 0; i < 4; i++ {
		n.tier.Get(key64("de"))
	}
	trips := n.tier.Stats().BreakerTrips
	if trips == 0 {
		t.Fatal("setup: dead peer never tripped its breaker")
	}
	n.tier.Update(cluster.PeerMap{Epoch: 2, Peers: []string{n.addr}, Replicas: 2})
	st := n.tier.Stats()
	if st.BreakerTrips != trips || reg.Counter(metrics.MetricPeerBreakerTrips, "").Value() != trips {
		t.Fatalf("trips after removing the peer: Stats %d, counter %d, want %d",
			st.BreakerTrips, reg.Counter(metrics.MetricPeerBreakerTrips, "").Value(), trips)
	}
}
