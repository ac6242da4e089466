package main

import (
	"errors"
	"flag"
	"net"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestClusterWorkerArgsRoundTrip sets every flag cluster forwards to a
// non-default value, builds the worker argv, parses it with the worker's
// own flag set, and requires the worker to end up with exactly the server
// and engine configuration the cluster flags describe. Cluster-only flags
// that share a name with a worker flag (-cache-peers) must not leak into
// the argv.
func TestClusterWorkerArgsRoundTrip(t *testing.T) {
	c := newClusterFlags()
	// Forwarding the whole engine layer is what keeps a new engine flag
	// from silently skipping the workers.
	newEngineFlags().fs.VisitAll(func(f *flag.Flag) {
		if !slices.Contains(c.forward, f.Name) {
			t.Errorf("engine flag -%s is not forwarded to workers", f.Name)
		}
	})
	valid := map[string]string{"precision": "strict"}
	for _, name := range c.forward {
		f := c.fs.Lookup(name)
		v, ok := valid[name]
		if !ok {
			switch typ, _ := flag.UnquoteUsage(f); typ {
			case "":
				v = "true"
			case "duration":
				v = "7s"
			case "float":
				v = "7.5"
			case "int":
				v = "7"
			case "string":
				v = "x7"
			default:
				t.Fatalf("-%s: no test value for flag type %q", name, typ)
			}
		}
		if err := c.fs.Set(name, v); err != nil {
			t.Fatalf("-%s=%s: %v", name, v, err)
		}
		if f.Value.String() == f.DefValue {
			t.Fatalf("-%s=%s left the flag at its default", name, v)
		}
	}
	for name, v := range map[string]string{"cache-peers": "true", "retries": "5", "hedge-max": "1"} {
		if err := c.fs.Set(name, v); err != nil {
			t.Fatal(err)
		}
	}

	dirs := []string{"inc", "other dir"}
	args := c.workerArgs(dirs)
	if args[0] != "worker" {
		t.Fatalf("argv %q does not start a worker", args)
	}
	w := newServeFlags("worker")
	w.fs.Init("worker", flag.ContinueOnError)
	if err := w.fs.Parse(args[1:]); err != nil {
		t.Fatalf("worker rejects %q: %v", args, err)
	}
	got, err := w.config()
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.worker.config()
	if err != nil {
		t.Fatal(err)
	}
	want.Analyzer.IncludeDirs = dirs
	if !reflect.DeepEqual(got, want) {
		t.Errorf("worker config from argv %q\n got %+v\nwant %+v", args, got, want)
	}
}

// TestClusterHedgeMaxBelowOneIsUsageError: -hedge-after <= 0 is hedging's
// one off switch, so a -hedge-max below 1 is refused with exit 2 before any
// input is read or worker spawned, never mapped to a default.
func TestClusterHedgeMaxBelowOneIsUsageError(t *testing.T) {
	for _, v := range []string{"0", "-1"} {
		err := cmdCluster([]string{"-hedge-max", v, "missing.c"})
		var code exitCode
		if !errors.As(err, &code) || code != 2 {
			t.Errorf("-hedge-max %s: err = %v, want exit status 2", v, err)
		}
	}
}

// TestIncrFlagsAliasCacheFlags: the memo keeps its records in the result
// cache, so -incr-dir and -incr-bytes each turn the memo on and set
// -cache-dir or -cache-bytes; an alias and its cache flag given different
// values is a usage error.
func TestIncrFlagsAliasCacheFlags(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		dir     string
		bytes   int64
		memo    bool
		wantErr string
	}{
		{args: nil},
		{args: []string{"-cache-dir", "d", "-cache-bytes", "5"}, dir: "d", bytes: 5},
		{args: []string{"-incr-dir", "d"}, dir: "d", memo: true},
		{args: []string{"-incr-bytes", "5"}, bytes: 5, memo: true},
		{args: []string{"-incr-dir", "d", "-cache-dir", "d", "-incr-bytes", "5", "-cache-bytes", "5"}, dir: "d", bytes: 5, memo: true},
		{args: []string{"-incr-dir", "d", "-cache-dir", "e"}, wantErr: "-incr-dir"},
		{args: []string{"-incr-bytes", "5", "-cache-bytes", "6"}, wantErr: "-incr-bytes"},
	} {
		f := newServeFlags("serve")
		f.fs.Init("serve", flag.ContinueOnError)
		if err := f.fs.Parse(tc.args); err != nil {
			t.Fatalf("%q: %v", tc.args, err)
		}
		cfg, err := f.config()
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%q: err = %v, want a usage error naming %s", tc.args, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%q: %v", tc.args, err)
		}
		if cfg.CacheDir != tc.dir || cfg.CacheBytes != tc.bytes || (cfg.Analyzer.Incremental != nil) != tc.memo {
			t.Errorf("%q: cache-dir %q, cache-bytes %d, memo %v; want %q, %d, %v",
				tc.args, cfg.CacheDir, cfg.CacheBytes, cfg.Analyzer.Incremental != nil, tc.dir, tc.bytes, tc.memo)
		}
	}
}

// TestUsageNamesExistingFlags checks every -name in each command's usage
// text against that command's flag set, as `pallas <cmd> -h` prints it;
// "[X flags]" claims every flag of command X.
func TestUsageNamesExistingFlags(t *testing.T) {
	bin := buildPallas(t)
	_, usage, code := runPallas(t, bin, nil, "help")
	if code != 0 {
		t.Fatalf("pallas help exit = %d", code)
	}
	blocks := map[string]string{}
	cmdLine := regexp.MustCompile(`^  ([a-z]+) `)
	cur := ""
	for _, line := range strings.Split(usage, "\n") {
		if m := cmdLine.FindStringSubmatch(line); m != nil {
			cur = m[1]
		} else if !strings.HasPrefix(line, "   ") {
			cur = ""
		}
		if cur != "" {
			blocks[cur] += line + "\n"
		}
	}
	if len(blocks) != 9 {
		t.Fatalf("usage documents %d commands, want 9:\n%s", len(blocks), usage)
	}

	flagLine := regexp.MustCompile(`(?m)^  -([a-z][a-z0-9-]*)`)
	flagsOf := map[string][]string{}
	for cmd := range blocks {
		_, help, code := runPallas(t, bin, nil, cmd, "-h")
		if code != 0 {
			t.Fatalf("pallas %s -h exit = %d", cmd, code)
		}
		for _, m := range flagLine.FindAllStringSubmatch(help, -1) {
			flagsOf[cmd] = append(flagsOf[cmd], m[1])
		}
	}
	flagRef := regexp.MustCompile(`(?:^|[\s\[(])-([a-z][a-z0-9-]*)`)
	setRef := regexp.MustCompile(`\[([a-z]+) flags\]`)
	for cmd, text := range blocks {
		for _, m := range flagRef.FindAllStringSubmatch(text, -1) {
			if !slices.Contains(flagsOf[cmd], m[1]) {
				t.Errorf("usage of %s names -%s, which %s does not accept", cmd, m[1], cmd)
			}
		}
		for _, m := range setRef.FindAllStringSubmatch(text, -1) {
			if len(flagsOf[m[1]]) == 0 {
				t.Errorf("usage of %s refers to %q, which has no flags", cmd, m[0])
			}
			for _, name := range flagsOf[m[1]] {
				if !slices.Contains(flagsOf[cmd], name) {
					t.Errorf("usage of %s claims %s, but %s lacks -%s", cmd, m[0], cmd, name)
				}
			}
		}
	}
}

// TestClusterWarningExitStopsWorkers runs a cluster whose one unit has a
// warning, so the coordinator exits 1, and requires every worker it
// announced to be gone: a non-zero exit must not skip stopping them.
func TestClusterWarningExitStopsWorkers(t *testing.T) {
	bin := buildPallas(t)
	files := writeCrashCorpus(t, t.TempDir(), 1)
	_, stderr, code := runPallas(t, bin, nil, append([]string{"cluster", "-cluster-workers", "2"}, files...)...)
	if code != 1 {
		t.Fatalf("cluster exit = %d, want 1\nstderr:\n%s", code, stderr)
	}
	ups := regexp.MustCompile(`worker slot \d+ up at (\S+)`).FindAllStringSubmatch(stderr, -1)
	if len(ups) == 0 {
		t.Fatalf("no worker announced itself\nstderr:\n%s", stderr)
	}
	for _, m := range ups {
		if conn, err := net.DialTimeout("tcp", m[1], time.Second); err == nil {
			conn.Close()
			t.Errorf("worker %s still accepts connections after cluster exited", m[1])
		}
	}
}
