// Command pallas-eval regenerates every table and figure of the paper's
// evaluation from the built-in corpus, study dataset and injection plan.
//
// Usage:
//
//	pallas-eval                 run everything (ends with the spec-inference
//	                            score)
//	pallas-eval -table N        reproduce Table N (1-8)
//	pallas-eval -figure N       reproduce Figure N (1-9)
//	pallas-eval -fp             reproduce the §5.3 false-positive analysis
//	pallas-eval -feas           feasibility-pruning experiment across
//	                            precision tiers (fast/balanced/strict)
//	pallas-eval -adversarial [-journal f [-resume]]
//	                            robustness sweep; with -journal the sweep
//	                            checkpoints outcomes and -resume skips
//	                            units a previous (possibly killed) run
//	                            already settled
package main

import (
	"flag"
	"fmt"
	"os"

	"pallas/internal/eval"
	"pallas/internal/failpoint"
)

func main() {
	table := flag.Int("table", 0, "reproduce one table (1-8)")
	figure := flag.Int("figure", 0, "reproduce one figure (1-9)")
	fp := flag.Bool("fp", false, "reproduce the false-positive analysis (§5.3)")
	timing := flag.Bool("timing", false, "measure per-fast-path analysis cost (§5)")
	ablation := flag.Bool("ablation", false, "per-checker contribution to Table 1")
	bigfile := flag.Bool("bigfile", false, "analyze the three subsystem-scale units")
	findings := flag.Bool("findings", false, "print the §3 finding/rule boxes")
	feasFlag := flag.Bool("feas", false, "feasibility-pruning experiment: precision tiers over the seeded infeasible-path corpus")
	adversarial := flag.Bool("adversarial", false, "robustness sweep over the hostile mini-corpus")
	journalPath := flag.String("journal", "", "checkpoint adversarial-sweep outcomes to this journal so a killed run resumes (with -adversarial)")
	resume := flag.Bool("resume", false, "skip units the journal already settled (requires -journal)")
	flag.Parse()
	if err := failpoint.ArmFromEnv(); err != nil {
		fmt.Fprintln(os.Stderr, "pallas-eval:", err)
		os.Exit(1)
	}

	run := func(name string, f func() (string, error)) {
		out, err := f()
		if err != nil {
			fmt.Fprintf(os.Stderr, "pallas-eval: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(out)
	}

	switch {
	case *table != 0:
		run(fmt.Sprintf("table %d", *table), func() (string, error) { return renderTable(*table) })
	case *figure != 0:
		run(fmt.Sprintf("figure %d", *figure), func() (string, error) { return eval.RunFigure(*figure) })
	case *fp:
		run("fp", func() (string, error) {
			r, err := eval.RunFP()
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		})
	case *timing:
		run("timing", func() (string, error) {
			r, err := eval.RunTiming()
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		})
	case *ablation:
		run("ablation", func() (string, error) {
			r, err := eval.RunAblation()
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		})
	case *feasFlag:
		run("feas", func() (string, error) {
			r, err := eval.RunFeas()
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		})
	case *bigfile:
		run("bigfile", eval.RunBigFiles)
	case *findings:
		fmt.Println(eval.RenderFindings())
	case *adversarial:
		run("adversarial", func() (string, error) {
			r, err := eval.RunAdversarialDurable(0, *journalPath, *resume)
			if err != nil {
				return "", err
			}
			if !r.Passed() {
				return r.Render(), fmt.Errorf("robustness contract violated")
			}
			return r.Render(), nil
		})
	default:
		for n := 1; n <= 8; n++ {
			run(fmt.Sprintf("table %d", n), func() (string, error) { return renderTable(n) })
		}
		for n := 1; n <= 9; n++ {
			run(fmt.Sprintf("figure %d", n), func() (string, error) { return eval.RunFigure(n) })
		}
		run("fp", func() (string, error) {
			r, err := eval.RunFP()
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		})
		run("infer", func() (string, error) {
			r, err := eval.RunInfer()
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		})
	}
}

func renderTable(n int) (string, error) {
	switch n {
	case 1:
		r, err := eval.RunTable1()
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	case 2:
		return eval.RenderTable2(), nil
	case 3:
		return eval.RenderTable3(), nil
	case 4:
		return eval.RenderTable4(), nil
	case 5:
		return eval.RunTable5()
	case 6:
		return eval.RenderTable6(), nil
	case 7:
		r, err := eval.RunTable7()
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	case 8:
		r, err := eval.RunTable8()
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	}
	return "", fmt.Errorf("no table %d (have 1-8)", n)
}
