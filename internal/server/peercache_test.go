package server

// Endpoint-level coverage of the shared cache tier: two real Servers meshed
// over httptest, exercising the framed get/put wire, the coordinator map
// push, zombie fencing, frame-error status mapping, and the peer-serve
// failpoint (corruption the frame CRC cannot see — only the requester's
// content-sum verification catches it).

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pallas/internal/cluster"
	"pallas/internal/failpoint"
	"pallas/internal/rcache"
	"pallas/internal/rcache/peer"
)

type peerNode struct {
	s  *Server
	ts *httptest.Server
}

func (n *peerNode) addr() string { return strings.TrimPrefix(n.ts.URL, "http://") }

// meshServers starts n full servers and joins their tiers with one map push
// through the real /v1/cluster/cachemap endpoint.
func meshServers(t *testing.T, n int) []*peerNode {
	t.Helper()
	nodes := make([]*peerNode, n)
	addrs := make([]string, n)
	for i := range nodes {
		s := newTestServer(t, Config{Workers: 2})
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(func() { ts.Close(); s.Close() })
		nodes[i] = &peerNode{s: s, ts: ts}
		addrs[i] = nodes[i].addr()
		s.SetAdvertiseAddr(addrs[i])
	}
	pm, _ := json.Marshal(cluster.PeerMap{Epoch: 1, Peers: addrs, Replicas: 2})
	for _, nd := range nodes {
		resp, err := http.Post(nd.ts.URL+peer.MapPath, "application/json", bytes.NewReader(pm))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("map push: status %d", resp.StatusCode)
		}
	}
	return nodes
}

func peerEntry(key string) *rcache.Entry {
	e := &rcache.Entry{Key: key, Unit: "u.c", Report: []byte(`{"warnings":["w"]}`)}
	e.Sum = rcache.ContentSum(e.Report, e.Paths)
	return e
}

func peerKey(seed string) string { return (seed + strings.Repeat("0", 64))[:64] }

func TestPeerEndpointsServeVerifiedRemoteHit(t *testing.T) {
	nodes := meshServers(t, 2)
	a, b := nodes[0], nodes[1]

	k := peerKey("aa")
	if err := a.s.Cache().Put(peerEntry(k)); err != nil {
		t.Fatal(err)
	}
	got, ok := b.s.PeerTier().Get(k)
	if !ok || got.Key != k {
		t.Fatalf("remote hit through the real endpoints: ok=%v", ok)
	}
	if st := b.s.PeerTier().Stats(); st.Hits != 1 || st.RotRefusals != 0 {
		t.Fatalf("requester stats: %+v", st)
	}

	// And the reverse direction: a replicated put lands in the peer's cache.
	k2 := peerKey("bb")
	if err := b.s.PeerTier().Put(peerEntry(k2)); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.s.Cache().Get(k2); !ok {
		t.Fatal("replicated put did not land on the peer")
	}
}

func TestPeerServeCorruptionRefusedByContentSum(t *testing.T) {
	nodes := meshServers(t, 2)
	a, b := nodes[0], nodes[1]

	k := peerKey("cc")
	if err := a.s.Cache().Put(peerEntry(k)); err != nil {
		t.Fatal(err)
	}
	// The answering side corrupts the entry content before framing: the frame
	// CRC is computed over the corrupted bytes, so it passes — only the
	// requester's content-sum verification can refuse it.
	if err := failpoint.Arm("peer-serve=corrupt@1"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disarm()
	if _, ok := b.s.PeerTier().Get(k); ok {
		t.Fatal("corrupted remote entry was accepted")
	}
	st := b.s.PeerTier().Stats()
	if st.RotRefusals != 1 || st.Hits != 0 {
		t.Fatalf("corruption must count a rot refusal, got %+v", st)
	}
	// With the failpoint spent, the same lookup heals.
	if _, ok := b.s.PeerTier().Get(k); !ok {
		t.Fatal("lookup after the one-shot corruption should hit")
	}
}

func TestPeerEndpointsFenceStaleEpochs(t *testing.T) {
	nodes := meshServers(t, 2) // both tiers now at epoch 1
	a := nodes[0]

	// Push a newer map to a only; b (epoch 1) is now the zombie.
	pm, _ := json.Marshal(cluster.PeerMap{Epoch: 7, Peers: []string{a.addr()}, Replicas: 2})
	resp, err := http.Post(a.ts.URL+peer.MapPath, "application/json", bytes.NewReader(pm))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	get, _ := cluster.EncodeFrame(cluster.FramePeerGet, cluster.PeerGetPayload{
		Key: peerKey("dd"), Epoch: 1,
	})
	r1, err := http.Post(a.ts.URL+peer.GetPath, "application/octet-stream", bytes.NewReader(get))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r1.Body)
	r1.Body.Close()
	if r1.StatusCode != http.StatusConflict {
		t.Fatalf("stale get: status %d, want 409", r1.StatusCode)
	}

	entry, _ := json.Marshal(peerEntry(peerKey("dd")))
	put, _ := cluster.EncodeFrame(cluster.FramePeerPut, cluster.PeerPutPayload{
		Key: peerKey("dd"), Entry: entry, Epoch: 1,
	})
	r2, err := http.Post(a.ts.URL+peer.PutPath, "application/octet-stream", bytes.NewReader(put))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r2.Body)
	r2.Body.Close()
	if r2.StatusCode != http.StatusConflict {
		t.Fatalf("stale put: status %d, want 409", r2.StatusCode)
	}
	if st := a.s.PeerTier().Stats(); st.StaleRefusals != 2 {
		t.Fatalf("StaleRefusals = %d, want 2", st.StaleRefusals)
	}

	// A replayed (equal-epoch) map push answers 200 applied=false.
	resp2, err := http.Post(a.ts.URL+peer.MapPath, "application/json", bytes.NewReader(pm))
	if err != nil {
		t.Fatal(err)
	}
	var ack struct {
		Applied bool  `json:"applied"`
		Epoch   int64 `json:"epoch"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK || ack.Applied || ack.Epoch != 7 {
		t.Fatalf("replayed map push: status=%d ack=%+v", resp2.StatusCode, ack)
	}
}

func TestPeerEndpointsMapFrameErrorsToStatus(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	post := func(path string, body []byte) int {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}

	// Garbage bytes: bad magic → 400.
	if code := post(peer.GetPath, []byte("not a frame at all")); code != http.StatusBadRequest {
		t.Fatalf("bad magic: status %d, want 400", code)
	}
	// Wrong frame type (a put frame on the get endpoint) → 400.
	entry, _ := json.Marshal(peerEntry(peerKey("ee")))
	put, _ := cluster.EncodeFrame(cluster.FramePeerPut, cluster.PeerPutPayload{
		Key: peerKey("ee"), Entry: entry,
	})
	if code := post(peer.GetPath, put); code != http.StatusBadRequest {
		t.Fatalf("wrong type: status %d, want 400", code)
	}
	// Oversized declared length → 413 without shipping the bytes.
	big := make([]byte, 13)
	copy(big, "PLSF")
	big[4] = cluster.FramePeerGet
	binary.BigEndian.PutUint32(big[5:9], cluster.MaxFramePayload+1)
	if code := post(peer.GetPath, big); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized: status %d, want 413", code)
	}
	// Corrupted payload (frame CRC mismatch) → 400.
	get, _ := cluster.EncodeFrame(cluster.FramePeerGet, cluster.PeerGetPayload{
		Key: peerKey("ee"),
	})
	get[len(get)-1] ^= 0xff
	if code := post(peer.GetPath, get); code != http.StatusBadRequest {
		t.Fatalf("checksum: status %d, want 400", code)
	}
	// Missing key → 400.
	empty, _ := cluster.EncodeFrame(cluster.FramePeerGet, cluster.PeerGetPayload{})
	if code := post(peer.GetPath, empty); code != http.StatusBadRequest {
		t.Fatalf("empty key: status %d, want 400", code)
	}
	// A rotted replicated write → 400 (refused, not stored).
	rot := peerEntry(peerKey("ff"))
	rot.Sum = "deadbeef"
	rotBytes, _ := json.Marshal(rot)
	rotPut, _ := cluster.EncodeFrame(cluster.FramePeerPut, cluster.PeerPutPayload{
		Key: rot.Key, Entry: rotBytes,
	})
	if code := post(peer.PutPath, rotPut); code != http.StatusBadRequest {
		t.Fatalf("rotted put: status %d, want 400", code)
	}
	if _, ok := s.Cache().Get(rot.Key); ok {
		t.Fatal("refused put reached the cache")
	}
}

func TestPeerEndpointsShedWhileDraining(t *testing.T) {
	nodes := meshServers(t, 2)
	a, b := nodes[0], nodes[1]

	k := peerKey("ab")
	if err := a.s.Cache().Put(peerEntry(k)); err != nil {
		t.Fatal(err)
	}
	a.s.StartDrain()
	// The requester sees 503 (fetchRefused) and degrades to a miss — no hang,
	// no error surfaced.
	if _, ok := b.s.PeerTier().Get(k); ok {
		t.Fatal("draining peer must shed, not serve")
	}
	if st := b.s.PeerTier().Stats(); st.Misses != 1 || st.Timeouts != 0 {
		t.Fatalf("shed must degrade to a clean miss, got %+v", st)
	}
}

func TestHealthzVerboseReportsPeerTier(t *testing.T) {
	nodes := meshServers(t, 2)
	a, b := nodes[0], nodes[1]

	k := peerKey("ad")
	if err := a.s.Cache().Put(peerEntry(k)); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.s.PeerTier().Get(k); !ok {
		t.Fatal("seed hit failed")
	}
	resp, err := http.Get(b.ts.URL + "/healthz?verbose=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hb struct {
		PeerCache *peer.Stats `json:"peer_cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hb); err != nil {
		t.Fatal(err)
	}
	if hb.PeerCache == nil {
		t.Fatal("verbose healthz omitted the peer tier")
	}
	if hb.PeerCache.Hits != 1 || hb.PeerCache.Peers != 2 || hb.PeerCache.Epoch != 1 {
		t.Fatalf("peer tier in healthz: %+v", *hb.PeerCache)
	}
}
