// Command pallasbench is the repository's benchmark: two seeded workloads
// (deep-units, serve-edits), each run in one process, every verdict checked
// against a known answer, and the end-to-end metrics printed as one JSON
// line. With -trace 1 it instead replays the workload with spans around
// every layer call and prints per-layer metrics; with -steady N it runs each
// workload N times and reports how much every metric spreads.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash pallasbench/run.sh --workload deep-units --seed 1 --seconds 20 --trace 0
//	bash pallasbench/run.sh --steady 10 --seconds 20
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// coldSetups is how many cold set-ups an end-to-end run times, each in a
// fresh process of its own; setup_s is their median.
const coldSetups = 5

// metric is one named, unit-bearing value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", strings.Join(workloadNames, " or "))
	seed := flag.Int64("seed", 1, "input generation seed")
	seconds := flag.Int("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	traceDir := flag.String("trace-dir", ".bench_build/traces", "where the traced run writes its spans")
	steady := flag.Int("steady", 0, "steadiness report: run each workload this many times")
	firstSeed := flag.Int64("first-seed", 1, "first seed for -steady (seeds count up from it)")
	setupOnly := flag.Bool("setup-only", false, "set the workload up, print \"ready <input hash>\" and exit (one cold set-up of an end-to-end run)")
	flag.Parse()

	if *steady > 0 {
		os.Exit(steadyReport(*steady, *firstSeed, *seconds))
	}
	if *setupOnly {
		b, err := newBench(*workload)
		if err == nil {
			err = setup(b, *seed)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Println("ready", b.inputHash())
		b.close()
		return
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds must be at least 1"))
	}
	d := time.Duration(*seconds) * time.Second
	var res result
	var err error
	if *trace == 1 {
		res, err = tracedRun(*workload, *seed, d, *traceDir)
	} else {
		res, err = endToEnd(*workload, *seed, d)
	}
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pallasbench:", err)
	os.Exit(1)
}

// endToEnd times coldSetups set-ups, each in a fresh process, then sets the
// workload up once more in this process and measures verdicts untraced for
// d.
func endToEnd(workload string, seed int64, d time.Duration) (result, error) {
	var setupS []float64
	var hashes []string
	for i := 0; i < coldSetups; i++ {
		sec, hash, err := coldSetup(workload, seed)
		if err != nil {
			return result{}, fmt.Errorf("cold set-up %d: %w", i, err)
		}
		setupS = append(setupS, sec)
		hashes = append(hashes, hash)
	}
	b, err := newBench(workload)
	if err != nil {
		return result{}, err
	}
	t0 := time.Now()
	if err := setup(b, seed); err != nil {
		return result{}, err
	}
	defer b.close()
	own := time.Since(t0).Seconds()
	hashes = append(hashes, b.inputHash())

	w := &window{}
	b.measure(d, w, nil)

	printHeader(workload, seed, b)
	fails := append(determinism(workload, seed, hashes), b.failures()...)
	fmt.Printf("setup_s per cold set-up: %v (this process's own, not counted: %.4f)\n", roundAll(setupS), own)
	n := float64(w.attempted)
	lat := durationsMS(w.lat)
	tailV, tailPct, enough := tail(lat)
	fmt.Printf("verdict_tail_ms is p%.2f of %d verdicts (%.2fs timed)\n", tailPct, len(lat), w.wall.Seconds())
	fmt.Printf("units_per_s is the median of %d rounds' rates; over the whole timed stretch it is %.4g\n", len(w.rates), n/w.wall.Seconds())
	if !enough {
		fmt.Println("note: 10 or fewer verdicts, so verdict_tail_ms is their maximum")
	}
	res := finish(b, w, fails)
	res.Metrics = map[string]metric{
		"setup_s":         {median(setupS), "s"},
		"units_per_s":     {median(w.rates), "1/s"},
		"verdict_p50_ms":  {median(lat), "ms"},
		"verdict_tail_ms": {tailV, "ms"},
		"cpu_ms_per_unit": {ms(w.cpu) / n, "ms"},
		"peak_rss_mb":     {peakRSSMB(), "MB"},
		"ok_ratio":        {float64(w.ok) / n, "ratio"},
	}
	return res, nil
}

// coldSetup runs one set-up in a fresh process and returns the seconds from
// starting that process to its ready line (the point where it would send
// its first timed verdict), together with the input hash it generated.
// Process start, runtime and package initialization, heap growth from
// zero and every lazily built table are inside the interval.
func coldSetup(workload string, seed int64) (float64, string, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, "", err
	}
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10), "--setup-only")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, "", err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, "", err
	}
	line, rerr := bufio.NewReader(out).ReadString('\n')
	el := time.Since(t0)
	werr := cmd.Wait()
	hash, ok := strings.CutPrefix(strings.TrimSpace(line), "ready ")
	switch {
	case werr != nil:
		return 0, "", werr
	case rerr != nil || !ok:
		return 0, "", fmt.Errorf("no ready line (got %q)", line)
	}
	return el.Seconds(), hash, nil
}

// setup generates a workload's inputs and starts it.
func setup(b bench, seed int64) error {
	if err := b.generate(seed); err != nil {
		return fmt.Errorf("generate: %w", err)
	}
	if err := b.start(); err != nil {
		return fmt.Errorf("start: %w", err)
	}
	return nil
}

// determinism checks that every set-up generated byte-identical inputs and
// that the next seed generates different ones.
func determinism(workload string, seed int64, hashes []string) []string {
	var fails []string
	for i, h := range hashes {
		if h != hashes[0] {
			fails = append(fails, fmt.Sprintf("set-up %d generated different inputs: %s vs %s", i, h, hashes[0]))
		}
	}
	other, err := newBench(workload)
	if err == nil {
		err = other.generate(seed + 1)
	}
	switch {
	case err != nil:
		fails = append(fails, "seed+1 inputs: "+err.Error())
	case other.inputHash() == hashes[0]:
		fails = append(fails, fmt.Sprintf("seed %d and seed %d generate identical inputs", seed, seed+1))
	}
	return fails
}

func printHeader(workload string, seed int64, b bench) {
	fmt.Printf("workload %s seed %d input_sha256 %s\n", workload, seed, b.inputHash())
	fmt.Printf("nproc %d GOMAXPROCS %d %s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	for _, n := range b.notes() {
		fmt.Println(n)
	}
}

// finish prints disagreements and failures and fills the result's verdict
// counts.
func finish(b bench, w *window, fails []string) result {
	dis := b.dis().lines()
	for _, l := range dis {
		fmt.Println(l)
	}
	for _, f := range fails {
		fmt.Println("FAIL", f)
	}
	return result{
		Correct:   len(dis) == 0 && len(fails) == 0 && w.ok == w.attempted && w.attempted > 0,
		Attempted: w.attempted,
		Failed:    w.attempted - w.ok,
	}
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(int64(x*1e4+0.5)) / 1e4
	}
	return out
}
