package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// steadyReport runs every workload n times, one process per run with seeds
// first..first+n-1, and prints per end-to-end metric the median, the
// quartiles and the quartile spread as a share of the median, next to the
// bound BENCHMARK.json fixes for it. It returns 1 when a run fails or is
// incorrect, or a spread exceeds its bound.
func steadyReport(n int, first int64, seconds int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "pallasbench:", err)
		return 1
	}
	bounds := readBounds("BENCHMARK.json")
	fmt.Printf("steadiness: %d runs per workload, %ds each, seeds %d..%d; nproc %d GOMAXPROCS %d\n",
		n, seconds, first, first+int64(n)-1, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	status := 0
	for _, wl := range workloadNames {
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			seed := first + int64(i)
			res, err := runOnce(self, wl, seed, seconds)
			if err != nil {
				fmt.Printf("%s seed %d: %v\n", wl, seed, err)
				status = 1
				continue
			}
			if !res.Correct || res.Failed > 0 {
				fmt.Printf("%s seed %d: incorrect (%d of %d verdicts failed)\n", wl, seed, res.Failed, res.Attempted)
				status = 1
			}
			for k, m := range res.Metrics {
				values[k] = append(values[k], m.Value)
			}
		}
		names := make([]string, 0, len(values))
		for k := range values {
			names = append(names, k)
		}
		sort.Strings(names)
		fmt.Printf("\n%s\n%-16s %12s %12s %12s %8s %7s  %s\n", wl, "metric", "q1", "median", "q3", "spread", "bound", "values")
		for _, k := range names {
			xs := values[k]
			q1, q2, q3 := quartiles(xs)
			spread := (q3 - q1) / q2
			b, ok := bounds[k]
			verdict := ""
			switch {
			case !ok:
				verdict = "(no bound)"
			case spread > b:
				verdict = fmt.Sprintf("%.3f WIDE", b)
				status = 1
			case spread > b/3:
				verdict = fmt.Sprintf("%.3f over a third", b)
			default:
				verdict = fmt.Sprintf("%.3f ok", b)
			}
			vs := make([]string, len(xs))
			for i, x := range xs {
				vs[i] = strconv.FormatFloat(x, 'g', 5, 64)
			}
			fmt.Printf("%-16s %12.5g %12.5g %12.5g %8.4f %s  [%s]\n", k, q1, q2, q3, spread, verdict, strings.Join(vs, " "))
		}
	}
	return status
}

// runOnce runs one end-to-end benchmark process and parses its result line.
func runOnce(self, workload string, seed int64, seconds int) (result, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, fmt.Errorf("result line: %w", err)
	}
	return res, nil
}

// readBounds returns each end-to-end metric's bound from BENCHMARK.json;
// empty when the file is absent.
func readBounds(path string) map[string]float64 {
	out := map[string]float64{}
	b, err := os.ReadFile(path)
	if err != nil {
		return out
	}
	var doc struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if json.Unmarshal(bytes.TrimSpace(b), &doc) == nil {
		for _, m := range doc.EndToEnd {
			out[m.Name] = m.Bound
		}
	}
	return out
}
