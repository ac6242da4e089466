package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pallas"
	"pallas/internal/cluster"
	"pallas/internal/corpus"
	"pallas/internal/metrics"
	"pallas/internal/server"
)

// serveCacheStats runs the three feasibility cases plus one repeat through
// a server and returns its -cache-stats exit dump.
func serveCacheStats(t *testing.T, cfg server.Config, withPeer bool) string {
	t.Helper()
	cfg.Metrics = metrics.NewRegistry()
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if withPeer {
		peer, err := server.New(server.Config{Analyzer: cfg.Analyzer, Metrics: metrics.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		defer peer.Close()
		ts := httptest.NewServer(peer.Handler())
		defer ts.Close()
		srv.PeerTier().SetSelf("127.0.0.1:1")
		srv.PeerTier().Update(cluster.PeerMap{Epoch: 1, Peers: []string{"127.0.0.1:1", strings.TrimPrefix(ts.URL, "http://")}})
	}
	cases := corpus.FeasCases()
	for _, c := range append(cases, cases[0]) {
		body, _ := json.Marshal(server.AnalyzeRequest{Name: c.ID + ".c", Source: c.Source, Spec: c.Spec})
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("analyze %s: %d %s", c.ID, rec.Code, rec.Body)
		}
	}
	var b bytes.Buffer
	printCacheStats(&b, srv.Snapshot())
	return b.String()
}

// TestServeCacheStatsText pins the serve/worker -cache-stats dump, rendered
// from the server's snapshot, line for line.
func TestServeCacheStatsText(t *testing.T) {
	for _, tc := range []struct {
		name     string
		cfg      server.Config
		withPeer bool
		want     string
	}{
		{"fast, memo off", server.Config{}, false, `pallas: unit cache: 1 hit(s) (1 mem, 0 disk), 3 miss(es), 3 compute(s), 0 disk-full prune(s)
pallas: func memo: off (enable with -incr-dir)
pallas: feas: off (fast tier; enable with -precision balanced|strict)
pallas: peer cache: off (enable with -cache-peers or cluster mode)
`},
		{"strict, memo on, one peer", server.Config{Analyzer: pallas.Config{Precision: "strict", Incremental: &pallas.IncrementalOptions{}}}, true, `pallas: unit cache: 1 hit(s) (1 mem, 0 disk), 3 miss(es), 3 compute(s), 0 disk-full prune(s)
pallas: func memo: 0 hit(s), 3 miss(es), 0 invalidation(s); unit verdicts: 0 hit(s), 3 miss(es)
pallas: feas (strict): 3 path(s) pruned, 3 contradiction(s)
pallas: peer cache: epoch 1, 2 peer(s): 0 hit(s), 9 miss(es), 0 rot refusal(s), 0 read repair(s), 0 timeout(s)
pallas: peer cache: 9 put(s) (5457 bytes replicated); handoff 0 queued, 0 drained, 0 dropped, 0 pending; 0 breaker trip(s), 0 stale-epoch refusal(s)
`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := serveCacheStats(t, tc.cfg, tc.withPeer); got != tc.want {
				t.Errorf("-cache-stats:\n--- got\n%s--- want\n%s", got, tc.want)
			}
		})
	}
}
