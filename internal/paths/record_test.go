package paths

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// stringData calls visit with the data pointer of every non-empty string
// reachable from v.
func stringData(v reflect.Value, visit func(uintptr)) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			stringData(v.Elem(), visit)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			stringData(v.Field(i), visit)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			stringData(v.Index(i), visit)
		}
	case reflect.String:
		if s := v.String(); s != "" {
			visit(uintptr(unsafe.Pointer(unsafe.StringData(s))))
		}
	}
}

// TestDetachDropsSourceText: the extractor's names are slices of the
// source it parsed, so a record kept past its analysis keeps that text
// alive. After Detach, no string of the record points into the source,
// the record still equals an extraction of the same text, and each
// distinct name was copied once.
func TestDetachDropsSourceText(t *testing.T) {
	src := `
struct q { int len; int *map; };
int helper(struct q *q, int n) {
	if (q->len > n)
		q->len = n;
	return q->len;
}
int fast(struct q *q, int gfp_mask, int order) {
	int r = 0;
	if (gfp_mask & 4) {
		r = helper(q, order);
		if (!r)
			return -1;
	}
	switch (order) {
	case 0: q->map = 0; break;
	default: gfp_mask = order;
	}
	return r + gfp_mask;
}`
	fp := extract(t, src, "fast")
	want := extract(t, strings.Clone(src), "fast")

	lo := uintptr(unsafe.Pointer(unsafe.StringData(src)))
	hi := lo + uintptr(len(src))
	inSource := func(p uintptr) bool { return p >= lo && p < hi }
	var aliased []*string
	fp.eachString(func(s *string) {
		if *s != "" && inSource(uintptr(unsafe.Pointer(unsafe.StringData(*s)))) {
			aliased = append(aliased, s)
		}
	})
	if len(aliased) == 0 {
		t.Fatal("no extracted string slices the source; the check below proves nothing")
	}

	fp.Detach(src)
	if !reflect.DeepEqual(fp, want) {
		t.Fatal("Detach changed the record")
	}
	stringData(reflect.ValueOf(fp), func(p uintptr) {
		if inSource(p) {
			t.Fatal("a string still points into the source text after Detach")
		}
	})
	copies := map[string]map[uintptr]bool{}
	for _, s := range aliased {
		if copies[*s] == nil {
			copies[*s] = map[uintptr]bool{}
		}
		copies[*s][uintptr(unsafe.Pointer(unsafe.StringData(*s)))] = true
	}
	for name, ps := range copies {
		if len(ps) != 1 {
			t.Errorf("%s is held in %d copies, want 1", name, len(ps))
		}
	}
}
