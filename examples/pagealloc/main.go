// Pagealloc walks the paper's central example end to end: the Linux page
// allocation workflow of Figure 1(a), the migratetype-overwrite bug of
// Figure 3, and the symbolic path extraction of Table 5.
//
// It demonstrates three parts of the public API: workflow-level analysis of
// a fast/slow pair, the fast-vs-slow diff tool the authors used in their
// study, and raw path extraction.
//
//	go run ./examples/pagealloc
package main

import (
	"fmt"
	"log"
	"os"

	"pallas"
)

// The clean Figure-1(a) pair: a per-cpu fast path and a locked slow path.
const workflow = `
struct page { unsigned long flags; unsigned long private; };
struct per_cpu_lists { struct page *head; int count; };
struct zone {
	int id;
	int lock;
	struct per_cpu_lists pcp;
	struct page *fallback_lists;
	unsigned long nr_free;
};

static struct page *pcp_pop(struct zone *zone)
{
	struct page *page = zone->pcp.head;
	if (page)
		zone->pcp.count = zone->pcp.count - 1;
	return page;
}

struct page *get_page_from_freelist(unsigned long gfp_mask, unsigned int order,
				    struct zone *preferred_zone, unsigned long nodemask)
{
	struct page *page = 0;
	if (order == 0 && (nodemask & (1UL << preferred_zone->id)))
		page = pcp_pop(preferred_zone);
	return page;
}

struct page *alloc_pages_slowpath(unsigned long gfp_mask, unsigned int order,
				  struct zone *preferred_zone, unsigned long nodemask)
{
	struct page *page = 0;
	int i;
	preferred_zone->lock = 1;
	for (i = order; i < 11; i++) {
		if (preferred_zone->nr_free >= (1UL << i)) {
			page = preferred_zone->fallback_lists;
			preferred_zone->nr_free = preferred_zone->nr_free - (1UL << i);
			break;
		}
	}
	preferred_zone->lock = 0;
	return page;
}
`

const workflowSpec = `
pair get_page_from_freelist alloc_pages_slowpath
immutable gfp_mask nodemask
correlated preferred_zone nodemask
cond order
`

// The Figure-3 bug: freeing a page clobbers the migratetype the fast path
// cached in page->private.
const buggyFree = `
struct page { unsigned long private; int mlocked; };

int free_pages_fast(struct page *page, int migratetype)
{
	if (page->mlocked)
		return -1;
	page->private = migratetype;
	migratetype = 0; /* BUG: immutable input clobbered */
	page->private = migratetype;
	return 0;
}
`

func main() {
	analyzer := pallas.New(pallas.Config{})

	fmt.Println("== 1. the clean Figure-1(a) workflow passes all five checkers ==")
	res, err := analyzer.AnalyzeSource("page_alloc.c", workflow, workflowSpec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("warnings: %d (expected 0)\n\n", len(res.Report.Warnings))

	fmt.Println("== 2. the study's diff tool compares fast vs slow path ==")
	d, err := res.ComparePaths("get_page_from_freelist", "alloc_pages_slowpath")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(d.String())
	sugg, err := res.InferSpec("get_page_from_freelist", "alloc_pages_slowpath")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("suggested directives:")
	for _, s := range sugg {
		fmt.Println("  " + s.Directive)
	}
	fmt.Println()

	fmt.Println("== 3. the Figure-3 migratetype bug is caught by the path-state checker ==")
	res2, err := analyzer.AnalyzeSource("free.c", buggyFree,
		"fastpath free_pages_fast\nimmutable migratetype\n")
	if err != nil {
		log.Fatal(err)
	}
	if err := res2.Report.WriteText(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println()

	fmt.Println("== 4. Table-5-style symbolic paths of the fast path ==")
	fp, err := analyzer.ExtractPaths("page_alloc.c", workflow, "get_page_from_freelist")
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range fp.Paths {
		fmt.Print(p)
	}
}
