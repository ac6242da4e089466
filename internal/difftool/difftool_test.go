package difftool

import (
	"strings"
	"testing"

	"pallas/internal/cparse"
)

const pairSrc = `
struct sk_buff { int len; int flags; };
struct sock { unsigned long pred_flags; int state; };

int rcv_fast(struct sock *sk, struct sk_buff *skb)
{
	if (skb->flags & sk->pred_flags)
		return 0;
	return 1;
}

int validate_segment(struct sock *sk, struct sk_buff *skb);

int rcv_slow(struct sock *sk, struct sk_buff *skb)
{
	int err = validate_segment(sk, skb);
	if (err)
		return -1;
	if (skb->len < 0)
		return -1;
	sk->state = 1;
	return 0;
}
`

func compare(t *testing.T) *Diff {
	t.Helper()
	tu, err := cparse.Parse("t.c", pairSrc)
	if err != nil {
		t.Fatal(err)
	}
	return Compare(tu, tu.Func("rcv_fast"), tu.Func("rcv_slow"))
}

func TestProfiles(t *testing.T) {
	d := compare(t)
	if d.Fast.Func != "rcv_fast" || d.Slow.Func != "rcv_slow" {
		t.Fatalf("profiles = %+v / %+v", d.Fast, d.Slow)
	}
	if len(d.Fast.Conditions) != 1 || len(d.Slow.Conditions) != 2 {
		t.Errorf("conditions = %v / %v", d.Fast.Conditions, d.Slow.Conditions)
	}
	if len(d.Slow.Calls) != 1 || d.Slow.Calls[0] != "validate_segment" {
		t.Errorf("slow calls = %v", d.Slow.Calls)
	}
}

func TestDiffSets(t *testing.T) {
	d := compare(t)
	if len(d.CallsSlowOnly) != 1 || d.CallsSlowOnly[0] != "validate_segment" {
		t.Errorf("calls slow-only = %v", d.CallsSlowOnly)
	}
	foundErr := false
	for _, v := range d.VarsSlowOnly {
		if v == "err" {
			foundErr = true
		}
	}
	if !foundErr {
		t.Errorf("vars slow-only = %v", d.VarsSlowOnly)
	}
	// fast returns {0,1}, slow {-1,0} → differ.
	if !d.ReturnsDiffer {
		t.Error("returns should differ")
	}
}

func TestStringRender(t *testing.T) {
	d := compare(t)
	out := d.String()
	for _, want := range []string{"rcv_fast (fast) vs rcv_slow (slow)", "slow only", "returns:"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestIdenticalFunctionsEmptyDiff(t *testing.T) {
	src := `
int a(int x) { if (x) return 1; return 0; }
int b(int x) { if (x) return 1; return 0; }
`
	tu, err := cparse.Parse("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	d := Compare(tu, tu.Func("a"), tu.Func("b"))
	if len(d.VarsFastOnly)+len(d.VarsSlowOnly)+len(d.CallsFastOnly)+len(d.CallsSlowOnly) != 0 {
		t.Errorf("identical functions diff: %+v", d)
	}
	if d.ReturnsDiffer {
		t.Error("identical returns flagged")
	}
}
