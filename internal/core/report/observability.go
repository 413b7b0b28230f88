package report

import (
	"fmt"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"rrdps/internal/obs"
)

// Observability renders a registry dump as the cmd binaries' -metrics
// text output: the per-phase throughput table from the tracer, the stage
// counters grouped by dot-prefix, gauges, and histogram summaries.
func Observability(d obs.Dump) string {
	var b strings.Builder
	b.WriteString("Observability summary\n")

	if len(d.Phases) > 0 {
		b.WriteString(table(func(w *tabwriter.Writer) {
			fmt.Fprintln(w, "Phase\tSpans\tItems\tWall time\tItems/s")
			for _, p := range d.Phases {
				fmt.Fprintf(w, "%s\t%d\t%d\t%v\t%.0f\n",
					p.Phase, p.Spans, p.Items, p.Elapsed.Round(timeResolution), p.ItemsPerSec())
			}
		}))
	}

	if len(d.Snapshot.Counters) > 0 {
		b.WriteString(table(func(w *tabwriter.Writer) {
			fmt.Fprintln(w, "Counter\tValue")
			for _, name := range sortedKeys(d.Snapshot.Counters) {
				fmt.Fprintf(w, "%s\t%d\n", name, d.Snapshot.Counters[name])
			}
		}))
	}

	if len(d.Snapshot.Gauges) > 0 {
		b.WriteString(table(func(w *tabwriter.Writer) {
			fmt.Fprintln(w, "Gauge\tValue")
			for _, name := range sortedKeys(d.Snapshot.Gauges) {
				fmt.Fprintf(w, "%s\t%d\n", name, d.Snapshot.Gauges[name])
			}
		}))
	}

	if len(d.Snapshot.Histograms) > 0 {
		b.WriteString(table(func(w *tabwriter.Writer) {
			fmt.Fprintln(w, "Histogram\tCount\tSum\tMean\tMode bucket")
			for _, name := range sortedKeys(d.Snapshot.Histograms) {
				h := d.Snapshot.Histograms[name]
				mean := 0.0
				if h.Count > 0 {
					mean = float64(h.Sum) / float64(h.Count)
				}
				fmt.Fprintf(w, "%s\t%d\t%d\t%.1f\t%s\n", name, h.Count, h.Sum, mean, modeBucket(h))
			}
		}))
	}
	return b.String()
}

// timeResolution keeps wall-time cells readable.
const timeResolution = 10 * time.Microsecond

// sortedKeys returns m's names in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// modeBucket names the histogram's most-populated bucket as a value
// range.
func modeBucket(h obs.HistogramSnapshot) string {
	best, bestN := -1, uint64(0)
	for i, n := range h.Buckets {
		if n > bestN || (n == bestN && (best < 0 || i < best)) {
			best, bestN = i, n
		}
	}
	if best < 0 {
		return "-"
	}
	if best == 0 {
		return "0"
	}
	return fmt.Sprintf("[%d,%d)", obs.BucketLow(best), obs.BucketLow(best+1))
}
