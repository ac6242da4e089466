package eval

import (
	"fmt"
	"strings"

	"pallas/internal/corpus"
)

// bigFiles are the seven subsystem-scale units, the closest analogue to the
// paper's per-subsystem merged-unit runs.
var bigFiles = []struct {
	title string
	file  string
	get   func() (string, string)
}{
	{"mm/page_alloc.c (Figure 1a at subsystem scale)", "mm/page_alloc.c", corpus.BigFile},
	{"net/ipv4/tcp_input.c (Figure 1c at subsystem scale)", "net/ipv4/tcp_input.c", corpus.BigFileNet},
	{"fs/ubifs/file.c (Figure 1b at subsystem scale)", "fs/ubifs/file.c", corpus.BigFileFS},
	{"drivers/scsi/mpt3sas_base.c (Figure 8 at subsystem scale)", "drivers/scsi/mpt3sas_base.c", corpus.BigFileDev},
	{"chromium/task_queue_impl.cc (Table 7 WB rows at scale)", "chromium/task_queue_impl.cc", corpus.BigFileWB},
	{"ovs/dpif-netdev.c (Table 7 SDN rows at scale)", "ovs/dpif-netdev.c", corpus.BigFileSDN},
	{"android/binder.c (Table 7 MOB rows at scale)", "android/binder.c", corpus.BigFileMob},
}

// RunBigFiles analyzes the subsystem-scale units (the synthetic
// mm/page_alloc.c, net/ipv4/tcp_input.c, fs/ubifs/file.c and four more) and
// renders their seeded-defect verdicts.
func RunBigFiles() (string, error) {
	var sb strings.Builder
	sb.WriteString("subsystem-scale units — seeded deep bugs re-detected\n\n")
	for _, u := range bigFiles {
		src, spec := u.get()
		rep, err := analyzeCase(u.file, src, spec)
		if err != nil {
			return "", fmt.Errorf("%s: %w", u.file, err)
		}
		fmt.Fprintf(&sb, "== %s: %d warning(s) ==\n", u.title, len(rep.Warnings))
		for _, w := range rep.Warnings {
			fmt.Fprintf(&sb, "  %s\n", w.String())
			if w.LikelyConsequence != "" {
				fmt.Fprintf(&sb, "    likely consequence (study): %s\n", w.LikelyConsequence)
			}
		}
		sb.WriteString("\n")
	}
	return sb.String(), nil
}
