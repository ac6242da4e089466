package guard

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"pallas/internal/failpoint"
)

// TestTransient pins the retry classification the batch engine and the
// cluster worker share.
func TestTransient(t *testing.T) {
	panicked := Protect(StageParse, "p.c", func() error { panic("boom") })
	cases := map[string]struct {
		err  error
		want bool
	}{
		"panic":     {panicked, true},
		"budget":    {fmt.Errorf("walk: %w", ErrSteps), true},
		"failpoint": {fmt.Errorf("%w at pre-parse", failpoint.ErrInjected), true},
		"input":     {errors.New("p.c:1:1: expected type"), false},
	}
	for name, c := range cases {
		if got := Transient(c.err); got != c.want {
			t.Errorf("%s: Transient = %v, want %v", name, got, c.want)
		}
	}
}

func TestProtectConvertsPanic(t *testing.T) {
	err := Protect(StageParse, "bad.c", func() error {
		panic("index out of range")
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %v", err)
	}
	if pe.Stage != StageParse || pe.Unit != "bad.c" {
		t.Errorf("stage/unit = %s/%s", pe.Stage, pe.Unit)
	}
	if !strings.Contains(pe.Error(), "index out of range") {
		t.Errorf("message: %s", pe.Error())
	}
	if len(pe.Stack) == 0 {
		t.Error("panic stack not captured")
	}
}

func TestProtectPassesThroughErrors(t *testing.T) {
	want := errors.New("plain failure")
	if err := Protect(StageCheck, "u", func() error { return want }); err != want {
		t.Errorf("got %v", err)
	}
	if err := Protect(StageCheck, "u", func() error { return nil }); err != nil {
		t.Errorf("got %v", err)
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diag(StageExtract, "mm/page_alloc.c", errors.New("boom"), true)
	s := d.String()
	for _, want := range []string{"mm/page_alloc.c", "degraded", "extract", "boom"} {
		if !strings.Contains(s, want) {
			t.Errorf("diagnostic %q missing %q", s, want)
		}
	}
	if fatal := Diag(StageParse, "u", errors.New("x"), false).String(); !strings.Contains(fatal, "error[") {
		t.Errorf("non-partial diagnostic should render as error: %q", fatal)
	}
}

func TestBudgetNilIsUnlimited(t *testing.T) {
	var b *Budget
	for i := 0; i < 1000; i++ {
		if err := b.Step(); err != nil {
			t.Fatal(err)
		}
		if err := b.MacroExpand(); err != nil {
			t.Fatal(err)
		}
	}
	if b.Err() != nil || b.Steps() != 0 || b.MacroExpansions() != 0 {
		t.Error("nil budget must be inert")
	}
}

func TestBudgetStepLimit(t *testing.T) {
	b := NewBudget(nil, Limits{MaxSteps: 10})
	var last error
	for i := 0; i < 20; i++ {
		last = b.Step()
	}
	if !errors.Is(last, ErrSteps) {
		t.Fatalf("want ErrSteps, got %v", last)
	}
	if !IsBudget(last) {
		t.Error("ErrSteps must classify as a budget violation")
	}
}

func TestBudgetMacroLimit(t *testing.T) {
	b := NewBudget(nil, Limits{MaxMacroExpansions: 5})
	var last error
	for i := 0; i < 10; i++ {
		last = b.MacroExpand()
	}
	if !errors.Is(last, ErrMacroBudget) {
		t.Fatalf("want ErrMacroBudget, got %v", last)
	}
}

func TestBudgetDeadline(t *testing.T) {
	b := NewBudget(nil, Limits{Deadline: 10 * time.Millisecond})
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if err := b.Step(); err != nil {
			if !errors.Is(err, ErrDeadline) {
				t.Fatalf("want ErrDeadline, got %v", err)
			}
			return
		}
	}
	t.Fatal("deadline never enforced")
}

func TestBudgetContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	b := NewBudget(ctx, Limits{})
	cancel()
	var last error
	for i := 0; i < 2*(timeCheckMask+1); i++ {
		last = b.Step()
	}
	if !errors.Is(last, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", last)
	}
}

func TestBudgetContextDeadlineMerged(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	b := NewBudget(ctx, Limits{Deadline: time.Hour})
	if !b.hasDeadline || time.Until(b.deadline) > time.Minute {
		t.Error("tighter context deadline must win over the limit")
	}
}

func TestBudgetFirstViolationWins(t *testing.T) {
	b := NewBudget(nil, Limits{MaxSteps: 1, MaxMacroExpansions: 1})
	b.Step()
	b.Step() // trips steps
	b.MacroExpand()
	b.MacroExpand() // would trip macros, but steps came first
	if !errors.Is(b.Err(), ErrSteps) {
		t.Errorf("first violation must stick, got %v", b.Err())
	}
}

// TestBudgetConcurrentUse hammers one budget from many goroutines; run under
// -race this asserts the counters and violation latch are race-free.
func TestBudgetConcurrentUse(t *testing.T) {
	b := NewBudget(nil, Limits{MaxSteps: 5000, MaxMacroExpansions: 5000})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				b.Step()
				b.MacroExpand()
				b.Err()
			}
		}()
	}
	wg.Wait()
	if b.Steps() != 16000 || b.MacroExpansions() != 16000 {
		t.Errorf("lost updates: steps=%d macros=%d", b.Steps(), b.MacroExpansions())
	}
	if !errors.Is(b.Err(), ErrSteps) && !errors.Is(b.Err(), ErrMacroBudget) {
		t.Errorf("violation not latched: %v", b.Err())
	}
}

func TestPoolRunsEveryItem(t *testing.T) {
	n := 100
	out := make([]int, n)
	errs := Pool(n, 4, func(i int) error {
		out[i] = i * i
		return nil
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
		if out[i] != i*i {
			t.Fatalf("item %d not run", i)
		}
	}
}

func TestPoolIsolatesPanicsAndErrors(t *testing.T) {
	errs := Pool(5, 2, func(i int) error {
		switch i {
		case 1:
			panic("boom")
		case 3:
			return fmt.Errorf("soft failure")
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(errs[1], &pe) {
		t.Errorf("item 1: want *PanicError, got %v", errs[1])
	}
	if errs[3] == nil || !strings.Contains(errs[3].Error(), "soft failure") {
		t.Errorf("item 3: %v", errs[3])
	}
	for _, i := range []int{0, 2, 4} {
		if errs[i] != nil {
			t.Errorf("item %d must survive neighbours failing: %v", i, errs[i])
		}
	}
}

func TestPoolEdgeCases(t *testing.T) {
	if errs := Pool(0, 4, func(int) error { return nil }); errs != nil {
		t.Error("n=0 must return nil")
	}
	// workers <= 0 and workers > n both normalize.
	ran := 0
	var mu sync.Mutex
	errs := Pool(3, -1, func(i int) error {
		mu.Lock()
		ran++
		mu.Unlock()
		return nil
	})
	if len(errs) != 3 || ran != 3 {
		t.Errorf("ran=%d errs=%d", ran, len(errs))
	}
}

// TestPoolConcurrentWrites asserts under -race that positional result slots
// are a safe communication pattern (each worker writes distinct indices).
func TestPoolConcurrentWrites(t *testing.T) {
	n := 500
	vals := make([]string, n)
	Pool(n, 16, func(i int) error {
		vals[i] = fmt.Sprintf("v%d", i)
		return nil
	})
	for i, v := range vals {
		if v != fmt.Sprintf("v%d", i) {
			t.Fatalf("slot %d = %q", i, v)
		}
	}
}
