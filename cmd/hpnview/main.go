// Command hpnview is the offline fabric-forensics analyzer: it ingests the
// in-band path telemetry a run exported (the inband.tsv artifact produced
// under hpnsim/hpnbench -inband) and answers the paper's per-link
// questions after the fact:
//
//   - heatmap.csv: per-link utilization matrix, tier × link (gigabits);
//   - contended.tsv: the top-k contended links with the flow sets that
//     collided there (queue residency, attributed bits, flow IDs);
//   - imbalance.tsv: observed-path ECMP imbalance per (switch, group),
//     scored with the max/mean metric of Figure 13;
//   - polarization.tsv + stdout verdict: whether downstream bucket choices
//     are degenerate conditioned on upstream choices — the §2.2 hash
//     polarization fingerprint.
//
// Usage:
//
//	hpnview -in artifacts/inband.tsv -out forensics -topk 10
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"hpn/internal/inband"
)

func main() {
	var (
		in   = flag.String("in", "inband.tsv", "in-band per-hop TSV artifact to analyze")
		out  = flag.String("out", "", "directory for analysis outputs (empty: stdout summary only)")
		topk = flag.Int("topk", 10, "how many contended links to report")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "hpnview: unexpected argument %q (every option is a flag)\n", flag.Arg(0))
		os.Exit(2)
	}

	f, err := os.Open(*in)
	if err != nil {
		fail(err)
	}
	recs, err := inband.ParseTSV(f)
	f.Close()
	if err != nil {
		fail(err)
	}
	if len(recs) == 0 {
		fail(fmt.Errorf("%s holds no records; was the run driven with -inband?", *in))
	}

	usage := inband.LinkUsageTable(recs)
	contended := inband.TopContended(usage, *topk)
	imbalance := inband.ECMPImbalance(recs)
	pairs := inband.DetectPolarization(recs)

	fmt.Printf("%s: %d records, %d flows, %d links, %d ECMP groups, %d cascaded stage pairs\n",
		*in, len(recs), countFlows(recs), len(usage), len(imbalance), len(pairs))

	fmt.Printf("\ntop %d contended links (queue byte-seconds, Gbit, flows):\n", len(contended))
	for _, u := range contended {
		fmt.Printf("  %-28s %-10s q=%-12s %8.3f Gbit  %d flows %s\n",
			u.Name, u.Tier, fmtG(u.Queue), u.Bits/1e9, len(u.Flows), flowSet(u.Flows, 8))
	}

	fmt.Println("\nobserved-path ECMP imbalance (max/mean; 1.0 = even):")
	for _, g := range imbalance {
		mode := "5-tuple"
		if g.PerPort {
			mode = "per-port"
		}
		dir := "up"
		if g.Down {
			dir = "down"
		}
		fmt.Printf("  %-12s group=%-3d %-4s n=%-5d %-8s imbalance=%.2f\n",
			g.Node, g.Group, dir, g.Total, mode, g.Ratio)
	}

	fmt.Println("\npolarization detector (conditional bucket coverage; <0.6 = degenerate):")
	anyPolarized := false
	for i := range pairs {
		p := &pairs[i]
		verdict := "ok"
		if p.Polarized() {
			verdict = "POLARIZED"
			anyPolarized = true
		} else if p.Conditioned < 8 {
			verdict = "(too few samples)"
		}
		fmt.Printf("  %s(%d) -> %s(%d): n=%-5d score=%.2f %s\n",
			p.NodeA, p.GroupA, p.NodeB, p.GroupB, p.Conditioned, p.Score, verdict)
	}
	if anyPolarized {
		fmt.Println("\nverdict: HASH POLARIZATION DETECTED — upstream and downstream stages share hash outcomes (§2.2)")
	} else {
		fmt.Println("\nverdict: no polarization — downstream choices look independent of upstream buckets")
	}

	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fail(err)
		}
		write(filepath.Join(*out, "heatmap.csv"), func(f *os.File) error {
			return inband.WriteHeatmapCSV(f, usage)
		})
		write(filepath.Join(*out, "contended.tsv"), func(f *os.File) error {
			return writeContended(f, contended)
		})
		write(filepath.Join(*out, "imbalance.tsv"), func(f *os.File) error {
			return writeImbalance(f, imbalance)
		})
		write(filepath.Join(*out, "polarization.tsv"), func(f *os.File) error {
			return writePolarization(f, pairs)
		})
	}
	if anyPolarized {
		os.Exit(3) // distinguishable from usage (2) and I/O (1) failures
	}
}

func countFlows(recs []inband.Record) int {
	seen := map[int64]bool{}
	for i := range recs {
		seen[recs[i].Flow] = true
	}
	return len(seen)
}

// flowSet renders up to max flow IDs, eliding the rest.
func flowSet(flows []int64, max int) string {
	var b strings.Builder
	b.WriteByte('[')
	for i, f := range flows {
		if i >= max {
			fmt.Fprintf(&b, " +%d more", len(flows)-max)
			break
		}
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(strconv.FormatInt(f, 10))
	}
	b.WriteByte(']')
	return b.String()
}

func fmtG(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

func writeContended(f *os.File, links []inband.LinkUsage) error {
	if _, err := fmt.Fprintf(f, "link\tname\ttier\tqueue_bytesec\tgbit\tflows\tflow_ids\n"); err != nil {
		return err
	}
	for _, u := range links {
		if _, err := fmt.Fprintf(f, "%d\t%s\t%s\t%s\t%s\t%d\t%s\n",
			u.Link, u.Name, u.Tier,
			strconv.FormatFloat(u.Queue, 'g', -1, 64),
			strconv.FormatFloat(u.Bits/1e9, 'g', -1, 64),
			len(u.Flows), flowSet(u.Flows, 64)); err != nil {
			return err
		}
	}
	return nil
}

func writeImbalance(f *os.File, groups []inband.GroupImbalance) error {
	if _, err := fmt.Fprintf(f, "node\tgroup\tdir\tmode\tn\timbalance\tcounts\n"); err != nil {
		return err
	}
	for _, g := range groups {
		mode := "5tuple"
		if g.PerPort {
			mode = "perport"
		}
		dir := "up"
		if g.Down {
			dir = "down"
		}
		if _, err := fmt.Fprintf(f, "%s\t%d\t%s\t%s\t%d\t%s\t%v\n",
			g.Node, g.Group, dir, mode, g.Total,
			strconv.FormatFloat(g.Ratio, 'g', -1, 64), g.Counts); err != nil {
			return err
		}
	}
	return nil
}

func writePolarization(f *os.File, pairs []inband.StagePair) error {
	if _, err := fmt.Fprintf(f, "node_a\tgroup_a\tnode_b\tgroup_b\tn\tscore\tpolarized\n"); err != nil {
		return err
	}
	for i := range pairs {
		p := &pairs[i]
		if _, err := fmt.Fprintf(f, "%s\t%d\t%s\t%d\t%d\t%s\t%v\n",
			p.NodeA, p.GroupA, p.NodeB, p.GroupB, p.Conditioned,
			strconv.FormatFloat(p.Score, 'g', -1, 64), p.Polarized()); err != nil {
			return err
		}
	}
	return nil
}

func write(path string, fn func(*os.File) error) {
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	if err := fn(f); err != nil {
		f.Close()
		fail(err)
	}
	if err := f.Close(); err != nil {
		fail(err)
	}
	fmt.Printf("wrote %s\n", path)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "hpnview:", err)
	os.Exit(1)
}
