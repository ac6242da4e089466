package infer

import (
	"testing"

	"pallas/internal/cparse"
)

const pairSrc = `
struct page { unsigned long private; int state_active; };

int validate(struct page *page, unsigned long nodemask);

struct page *alloc_fast(struct page *page, unsigned long gfp_mask, unsigned long nodemask)
{
	validate(page, nodemask);
	page->private = gfp_mask;
	return page;
}

struct page *alloc_slow(struct page *page, unsigned long gfp_mask, unsigned long nodemask)
{
	int err = validate(page, nodemask);
	if (err)
		return 0;
	if (nodemask == 0)
		return 0;
	if (page->state_active)
		return 0;
	page->private = gfp_mask & 7;
	return page;
}
`

func suggestionsFor(t *testing.T) map[string]Suggestion {
	t.Helper()
	tu, err := cparse.Parse("t.c", pairSrc)
	if err != nil {
		t.Fatal(err)
	}
	sugg, err := Infer(tu, "alloc_fast", "alloc_slow")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]Suggestion{}
	for _, s := range sugg {
		out[s.Directive] = s
		if s.Confidence <= 0 || s.Confidence > 1 {
			t.Errorf("confidence out of range: %+v", s)
		}
		if s.Reason == "" {
			t.Errorf("missing reason: %+v", s)
		}
	}
	return out
}

func TestInferImmutables(t *testing.T) {
	got := suggestionsFor(t)
	s, ok := got["immutable gfp_mask"]
	if !ok {
		t.Fatalf("gfp_mask not proposed; got %v", keys(got))
	}
	if s.Confidence < 0.8 {
		t.Errorf("mode-named scalar should be high confidence: %+v", s)
	}
	if _, ok := got["immutable page"]; ok {
		t.Error("page is written by the slow path; must not be immutable")
	}
}

func TestInferFaults(t *testing.T) {
	got := suggestionsFor(t)
	if _, ok := got["fault state_active"]; !ok {
		t.Errorf("fault state_active not proposed; got %v", keys(got))
	}
}

func TestInferPairAlwaysFirst(t *testing.T) {
	tu, err := cparse.Parse("t.c", pairSrc)
	if err != nil {
		t.Fatal(err)
	}
	sugg, err := Infer(tu, "alloc_fast", "alloc_slow")
	if err != nil {
		t.Fatal(err)
	}
	if len(sugg) == 0 || sugg[0].Directive != "pair alloc_fast alloc_slow" {
		t.Errorf("pair not first: %+v", sugg)
	}
}

func TestInferUnknownFunc(t *testing.T) {
	tu, _ := cparse.Parse("t.c", pairSrc)
	if _, err := Infer(tu, "alloc_fast", "missing"); err == nil {
		t.Fatal("expected error")
	}
}

func keys(m map[string]Suggestion) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
