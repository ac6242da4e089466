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

// checkCacheStats runs the three feasibility cases through one batch per
// element of edits, each on a fresh analyzer as a separate check run would
// be, and returns the last run's -cache-stats dump. edits[i] is appended to
// the first case's source in run i.
func checkCacheStats(t *testing.T, cfg pallas.Config, opts pallas.BatchOptions, edits ...string) string {
	t.Helper()
	var b bytes.Buffer
	for _, edit := range edits {
		var units []pallas.Unit
		for i, c := range corpus.FeasCases() {
			if i == 0 {
				c.Source += edit
			}
			units = append(units, pallas.Unit{Name: c.ID + ".c", Source: c.Source, Spec: c.Spec})
		}
		a := pallas.New(cfg)
		_, stats, err := a.AnalyzeBatch(units, opts)
		if err != nil {
			t.Fatal(err)
		}
		b.Reset()
		printUnitStats(&b, checkSnapshot(a, stats, cfg.Precision), true)
	}
	return b.String()
}

// TestCheckCacheStatsText pins the check -cache-stats dump, rendered from
// the snapshot checkSnapshot builds, with the unit-cache line serve prints.
// The second case re-checks over a warm cache directory with a trailing
// comment added to one unit: the result cache answers the other two from
// disk, and the memo replays the edited unit's verdict.
func TestCheckCacheStatsText(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name  string
		cfg   pallas.Config
		opts  pallas.BatchOptions
		edits []string
		want  string
	}{
		{"fast, memo off", pallas.Config{}, pallas.BatchOptions{}, []string{""}, `pallas: unit cache: 0 hit(s) (0 mem, 0 disk), 0 miss(es), 3 compute(s), 0 disk-full prune(s)
pallas: func memo: off (enable with -incr-dir)
pallas: feas: off (fast tier; enable with -precision balanced|strict)
`},
		{"strict, memo on, warm cache dir", pallas.Config{Precision: "strict", Incremental: &pallas.IncrementalOptions{}},
			pallas.BatchOptions{CacheDir: dir}, []string{"", "/* edited */\n"}, `pallas: unit cache: 2 hit(s) (0 mem, 2 disk), 1 miss(es), 1 compute(s), 0 disk-full prune(s)
pallas: func memo: 0 hit(s), 0 miss(es), 0 invalidation(s); unit verdicts: 1 hit(s), 0 miss(es); reuse 100%
pallas: feas (strict): 1 path(s) pruned, 0 contradiction(s)
`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := checkCacheStats(t, tc.cfg, tc.opts, tc.edits...); got != tc.want {
				t.Errorf("-cache-stats:\n--- got\n%s--- want\n%s", got, tc.want)
			}
		})
	}
}
