// Specinfer demonstrates the inference extension (the paper's stated future
// work, §4): given a fast/slow pair with NO annotations, Pallas proposes the
// semantic directives automatically by treating the slow path as the
// reference implementation, then checks the fast path against the accepted
// suggestions — closing the loop from raw code to detected bug.
//
//	go run ./examples/specinfer
package main

import (
	"fmt"
	"log"
	"os"
	"strings"

	"pallas"
)

// A buggy UDP-send-style pair: the fast path never tests the socket's
// soft-error state and clobbers the shared mode flags. The two inference
// heuristics (immutable parameters, fault states) propose the directives
// that catch both.
const src = `
struct sock { int state; int err_soft; };
struct msg { int len; };

int udp_send_fast(struct sock *sk, struct msg *m, unsigned long corking_flags)
{
	corking_flags = 0;               /* immutable clobbered */
	sk->state = 1;
	return 0;
}

int udp_send_slow(struct sock *sk, struct msg *m, unsigned long corking_flags)
{
	if (corking_flags != 0)
		return -1;
	if (sk->err_soft)
		return -1;
	sk->state = 1;
	return 0;
}
`

func main() {
	analyzer := pallas.New(pallas.Config{})

	// Step 1: analyze with only the pair declared, so the TU is parsed.
	res, err := analyzer.AnalyzeSource("udp.c", src, "pair udp_send_fast udp_send_slow\n")
	if err != nil {
		log.Fatal(err)
	}

	// Step 2: infer semantic directives from the slow path.
	sugg, err := res.InferSpec("udp_send_fast", "udp_send_slow")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== inferred directives ==")
	var accepted []string
	for _, s := range sugg {
		fmt.Printf("%-44s # %.0f%% — %s\n", s.Directive, s.Confidence*100, s.Reason)
		// Accept everything at ≥60% confidence for the demo.
		if s.Confidence >= 0.6 {
			accepted = append(accepted, s.Directive)
		}
	}

	// Step 3: re-check with the accepted spec.
	fmt.Println("\n== checking against the accepted spec ==")
	res2, err := analyzer.AnalyzeSource("udp.c", src, strings.Join(accepted, "\n"))
	if err != nil {
		log.Fatal(err)
	}
	if err := res2.Report.WriteText(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(res2.Report.Summary())
}
