package main

// Chaos acceptance for cluster mode, against the real binary: stdout and the
// merged path database must be byte-identical to a single-process `check` at
// any worker count and under any crash schedule. Three schedules are driven:
// every worker SIGKILLed by an armed failpoint on its first unit (and
// restarted by the supervisor), the coordinator itself SIGKILLed mid-run and
// resumed from its journal, and the plain 1-vs-3-worker comparison. The
// bench artifact test times the same corpus at 1/2/4 worker processes and
// writes BENCH_cluster.json when PALLAS_BENCH_OUT is set.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"pallas/internal/failpoint"
)

// runPallas runs the built binary with the given subcommand and returns
// stdout, stderr and the exit code (-1 when killed by a signal).
func runPallas(t *testing.T, bin string, env []string, args ...string) (string, string, int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Env = append(os.Environ(), env...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	code := 0
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			code = ee.ExitCode()
		} else {
			t.Fatalf("run %v: %v", args, err)
		}
	}
	if ctx.Err() != nil {
		t.Fatalf("run %v timed out\nstderr:\n%s", args, stderr.String())
	}
	return stdout.String(), stderr.String(), code
}

// TestClusterWorkerCrashByteIdentical is the worker-side chaos proof: with
// every spawned worker armed to SIGKILL itself on its first unit (restarts
// clear the failpoint), a 3-worker cluster run must still produce stdout and
// a merged path database byte-identical to both a single-process `check`
// and a 1-worker cluster run.
func TestClusterWorkerCrashByteIdentical(t *testing.T) {
	bin := buildPallas(t)
	dir := t.TempDir()
	files := writeCrashCorpus(t, dir, 14)
	db1 := filepath.Join(dir, "db1.json")
	db3 := filepath.Join(dir, "db3.json")

	// Reference: single-process check (every unit carries a seeded warning).
	wantOut, _, wantCode := runCheck(t, bin, nil, append([]string{"-workers", "1"}, files...)...)
	if wantCode != 1 {
		t.Fatalf("reference check exit = %d, want 1", wantCode)
	}

	// 1-worker cluster, no faults: the merge baseline.
	out1, err1, code := runPallas(t, bin, nil,
		append([]string{"cluster", "-cluster-workers", "1", "-pathdb", db1}, files...)...)
	if code != wantCode {
		t.Fatalf("1-worker cluster exit = %d, want %d\nstderr:\n%s", code, wantCode, err1)
	}
	if out1 != wantOut {
		t.Fatalf("1-worker cluster stdout differs from check\n--- want ---\n%s\n--- got ---\n%s", wantOut, out1)
	}

	// 3-worker cluster where each worker is SIGKILLed on its first unit.
	out3, err3, code := runPallas(t, bin,
		[]string{failpoint.EnvVar + "=pre-parse=kill@1"},
		append([]string{"cluster", "-cluster-workers", "3",
			"-heartbeat", "100ms", "-retry-backoff", "20ms", "-pathdb", db3}, files...)...)
	if code != wantCode {
		t.Fatalf("chaos cluster exit = %d, want %d\nstderr:\n%s", code, wantCode, err3)
	}
	if out3 != wantOut {
		t.Fatalf("chaos cluster stdout differs from check\n--- want ---\n%s\n--- got ---\n%s", wantOut, out3)
	}
	if !strings.Contains(err3, "restarting") {
		t.Errorf("chaos run stderr shows no worker restart — failpoint never fired?\n%s", err3)
	}

	b1, err := os.ReadFile(db1)
	if err != nil {
		t.Fatal(err)
	}
	b3, err := os.ReadFile(db3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b3) {
		t.Fatalf("merged path database differs between 1 worker and 3 crashing workers\n--- 1 ---\n%s\n--- 3 ---\n%s", b1, b3)
	}
}

// TestClusterRepeatRunHitsSharedCacheDir: a repeat cluster run over the
// same files is served from the cache whichever worker each unit lands on,
// because every spawned worker gets the same -cache-dir and so shares one
// disk tier. The second run must report one cache hit per unit, with stdout
// and the merged path database byte-identical to the first run's.
func TestClusterRepeatRunHitsSharedCacheDir(t *testing.T) {
	bin := buildPallas(t)
	dir := t.TempDir()
	const nUnits = 6
	files := writeCrashCorpus(t, dir, nUnits)
	cacheDir := filepath.Join(dir, "cache")
	var outs, dbs [2]string
	var stderr2 string
	for run := range outs {
		db := filepath.Join(dir, fmt.Sprintf("db%d.json", run))
		stdout, stderr, code := runPallas(t, bin, nil,
			append([]string{"cluster", "-cluster-workers", "3", "-cache-dir", cacheDir, "-pathdb", db}, files...)...)
		if code != 1 {
			t.Fatalf("run %d: exit = %d, want 1\nstderr:\n%s", run, code, stderr)
		}
		b, err := os.ReadFile(db)
		if err != nil {
			t.Fatal(err)
		}
		outs[run], dbs[run], stderr2 = stdout, string(b), stderr
	}
	if want := fmt.Sprintf("%d completed", nUnits); !strings.Contains(stderr2, want) {
		t.Errorf("repeat run summary lacks %q:\n%s", want, stderr2)
	}
	if want := fmt.Sprintf("%d cache hit(s)", nUnits); !strings.Contains(stderr2, want) {
		t.Errorf("repeat run summary lacks %q: every unit should hit the shared disk tier\n%s", want, stderr2)
	}
	if outs[0] != outs[1] {
		t.Errorf("repeat run stdout differs\n--- first ---\n%s\n--- repeat ---\n%s", outs[0], outs[1])
	}
	if dbs[0] != dbs[1] {
		t.Errorf("repeat run -pathdb bytes differ\n--- first ---\n%s\n--- repeat ---\n%s", dbs[0], dbs[1])
	}
}

// TestClusterCoordinatorKillResume is the coordinator-side chaos proof: the
// cluster process (and its whole process group, workers included) is
// SIGKILLed once the journal holds some terminal records, then re-run with
// -resume. The resumed run must replay the settled units instead of
// re-analyzing them, produce byte-identical stdout, and leave exactly one
// terminal journal record per unit — nothing lost, nothing recorded twice.
func TestClusterCoordinatorKillResume(t *testing.T) {
	bin := buildPallas(t)
	dir := t.TempDir()
	files := writeCrashCorpus(t, dir, 16)
	jpath := filepath.Join(dir, "cluster.jsonl")

	wantOut, _, wantCode := runCheck(t, bin, nil, append([]string{"-workers", "1"}, files...)...)
	if wantCode != 1 {
		t.Fatalf("reference check exit = %d, want 1", wantCode)
	}

	// Slow every worker analysis down so the kill lands mid-run, and put the
	// cluster in its own process group so SIGKILL takes the workers too (the
	// supervisor gets no chance to clean up — that is the point).
	cmd := exec.Command(bin, append([]string{"cluster",
		"-cluster-workers", "2", "-journal", jpath}, files...)...)
	cmd.Env = append(os.Environ(), failpoint.EnvVar+"=pre-extract=sleep:400ms")
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Wait until at least two units have terminal records, then pull the plug.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(deadline) {
			syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
			cmd.Wait()
			t.Fatal("cluster run produced no terminal journal records in time")
		}
		b, _ := os.ReadFile(jpath)
		if bytes.Count(b, []byte(`"status":"ok"`)) >= 2 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
	cmd.Wait()

	// Resume without the stall: settled units replay, the rest analyze.
	gotOut, gotErr, code := runPallas(t, bin, nil,
		append([]string{"cluster", "-cluster-workers", "2",
			"-journal", jpath, "-resume"}, files...)...)
	if code != wantCode {
		t.Fatalf("resumed cluster exit = %d, want %d\nstderr:\n%s", code, wantCode, gotErr)
	}
	if gotOut != wantOut {
		t.Fatalf("resumed cluster stdout differs from check\n--- want ---\n%s\n--- got ---\n%s", wantOut, gotOut)
	}
	if !strings.Contains(gotErr, "resumed from journal") {
		t.Errorf("resume stderr shows no replayed unit — kill landed after the run finished?\n%s", gotErr)
	}

	// Exactly-once across the crash: one terminal record per unit, total.
	terminal := map[string]int{}
	for _, r := range readJournal(t, jpath) {
		if r.Status.Terminal() {
			terminal[r.Unit]++
		}
	}
	for i := 1; i <= len(files); i++ {
		unit := fmt.Sprintf("c%d.c", i)
		if terminal[unit] != 1 {
			t.Errorf("unit %s has %d terminal journal records, want exactly 1", unit, terminal[unit])
		}
	}
}

// clusterBench is the BENCH_cluster.json schema: wall time and units/sec for
// the same corpus at 1, 2 and 4 worker processes, with a fixed injected
// stall per unit so the workload is uniform across hosts.
type clusterBench struct {
	Units    int `json:"units"`
	StallMS  int `json:"stall_ms"`
	Inflight int `json:"inflight"`
	HostCPUs int `json:"host_cpus"`
	Runs     []struct {
		WorkerProcs int     `json:"worker_procs"`
		Seconds     float64 `json:"seconds"`
		UnitsPerSec float64 `json:"units_per_sec"`
	} `json:"runs"`
	Speedup4v1 float64 `json:"speedup_4_vs_1"`
	Identical  bool    `json:"identical_output"`
}

// TestClusterBenchArtifact times a 24-unit corpus at 1/2/4 worker processes
// (each unit carrying a 100ms injected stall, so throughput scales with
// process count rather than host speed), re-asserts byte-identical stdout
// across all counts, and writes BENCH_cluster.json when PALLAS_BENCH_OUT is
// set. Ratios are recorded, not asserted: spawn overhead dominates on slow
// runners.
func TestClusterBenchArtifact(t *testing.T) {
	out := os.Getenv("PALLAS_BENCH_OUT")
	if testing.Short() && out == "" {
		t.Skip("short mode")
	}
	bin := buildPallas(t)
	dir := t.TempDir()
	const nUnits = 24
	files := writeCrashCorpus(t, dir, nUnits)
	env := []string{failpoint.EnvVar + "=pre-extract=sleep:100ms"}

	bench := clusterBench{Units: nUnits, StallMS: 100, Inflight: 2, HostCPUs: runtime.NumCPU()}
	var firstOut string
	var wall [3]time.Duration
	for i, procs := range []int{1, 2, 4} {
		start := time.Now()
		stdout, stderr, code := runPallas(t, bin, env,
			append([]string{"cluster",
				"-cluster-workers", fmt.Sprint(procs),
				"-workers", "2", "-inflight", "2"}, files...)...)
		wall[i] = time.Since(start)
		if code != 1 {
			t.Fatalf("%d-worker bench run exit = %d, want 1\nstderr:\n%s", procs, code, stderr)
		}
		if i == 0 {
			firstOut = stdout
		} else if stdout != firstOut {
			t.Errorf("%d-worker stdout differs from 1-worker stdout", procs)
		}
		bench.Runs = append(bench.Runs, struct {
			WorkerProcs int     `json:"worker_procs"`
			Seconds     float64 `json:"seconds"`
			UnitsPerSec float64 `json:"units_per_sec"`
		}{procs, wall[i].Seconds(), float64(nUnits) / wall[i].Seconds()})
	}
	bench.Speedup4v1 = float64(wall[0].Nanoseconds()) / float64(wall[2].Nanoseconds())
	bench.Identical = true
	t.Logf("cluster bench: %d units, stall %dms: 1p %.2fs, 2p %.2fs, 4p %.2fs (4v1 %.2fx)",
		nUnits, bench.StallMS, wall[0].Seconds(), wall[1].Seconds(), wall[2].Seconds(), bench.Speedup4v1)
	if out == "" {
		return
	}
	data, err := json.MarshalIndent(bench, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
