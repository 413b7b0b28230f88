package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rrdps/internal/obs"
)

// span is one timed interval of a traced run. Benchmark-side spans wrap
// each public call the benchmark makes into the program; program spans
// are the obs phase events (day, week, warmup, collect, scan, cname,
// filter, verify) the engines already record. Op is the day, round or
// request the span belongs to (-1 for set-up and the end-of-run calls).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Src    string `json:"src"`
	Label  string `json:"label,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps a traced run's spans in memory until the run ends. Each
// goroutine that records spans owns a spanLog, so recording takes no
// lock. A nil *tracer records nothing, which is the untraced mode.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	logs   []*spanLog
}

type spanLog struct {
	t     *tracer
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// log returns a new per-goroutine span log (nil for a nil tracer).
func (t *tracer) log() *spanLog {
	if t == nil {
		return nil
	}
	l := &spanLog{t: t}
	t.mu.Lock()
	t.logs = append(t.logs, l)
	t.mu.Unlock()
	return l
}

// open starts a benchmark-side span and returns its id (0 when
// untraced). close ends it.
func (l *spanLog) open(name string, parent, op int64) int64 {
	if l == nil {
		return 0
	}
	id := l.t.nextID.Add(1)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Op: op, Name: name, Src: "bench", Start: l.t.since(time.Now()), End: -1})
	return id
}

func (l *spanLog) close(id int64) {
	if l == nil {
		return
	}
	end := l.t.since(time.Now())
	for i := len(l.spans) - 1; i >= 0; i-- {
		if l.spans[i].ID == id {
			l.spans[i].End = end
			return
		}
	}
}

// call runs f inside a span named after the public call it makes.
func (l *spanLog) call(name string, parent, op int64, f func()) {
	id := l.open(name, parent, op)
	defer l.close(id)
	f()
}

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.t0)) }

// collect merges the benchmark spans with the registry's obs events,
// gives each obs event a parent, and fills in self times.
func (t *tracer) collect(reg *obs.Registry) []span {
	var all []span
	for _, l := range t.logs {
		all = append(all, l.spans...)
	}
	bench := len(all)
	for _, ev := range reg.Tracer().Events() {
		start := t.since(ev.Start)
		all = append(all, span{
			ID:    t.nextID.Add(1),
			Op:    -1,
			Name:  ev.Phase,
			Src:   "obs",
			Label: ev.Label,
			Start: start,
			End:   start + int64(ev.Elapsed),
		})
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].Start != all[j].Start {
			return all[i].Start < all[j].Start
		}
		return all[i].End > all[j].End
	})
	if len(all) > bench {
		assignParents(all)
	}
	fillSelf(all)
	return all
}

// assignParents gives each obs event the innermost span that contains it
// and has another name: obs events carry no parent of their own, and
// same-named events (verify spans of parallel workers) overlap without
// nesting. Spans are sorted by start, so scanning back from an event
// meets the latest-starting container first.
func assignParents(all []span) {
	for i := range all {
		s := &all[i]
		if s.Src != "obs" {
			continue
		}
		for j := i - 1; j >= 0; j-- {
			c := all[j]
			if c.Name != s.Name && c.Start <= s.Start && c.End >= s.End {
				s.Parent, s.Op = c.ID, c.Op
				break
			}
		}
	}
}

// fillSelf sets each span's self time: its duration minus the union of
// its children's intervals, so overlapping parallel children are not
// subtracted twice.
func fillSelf(all []span) {
	children := make(map[int64][][2]int64)
	for _, s := range all {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range all {
		s := &all[i]
		ivs := children[s.ID]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered, curS, curE int64 = 0, 0, -1
		for _, iv := range ivs {
			lo, hi := max(iv[0], s.Start), min(iv[1], s.End)
			if hi <= lo {
				continue
			}
			if lo > curE {
				if curE > curS {
					covered += curE - curS
				}
				curS, curE = lo, hi
			} else if hi > curE {
				curE = hi
			}
		}
		if curE > curS {
			covered += curE - curS
		}
		s.Self = s.End - s.Start - covered
	}
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// selfSummary totals spans and self time by source and name, largest
// self time first — the per-layer time table of a traced run.
type selfRow struct {
	Name        string
	Count       int
	Total, Self time.Duration
}

func selfSummary(spans []span) []selfRow {
	rows := map[string]*selfRow{}
	for _, s := range spans {
		key := s.Src + ":" + s.Name
		r, ok := rows[key]
		if !ok {
			r = &selfRow{Name: key}
			rows[key] = r
		}
		r.Count++
		r.Total += time.Duration(s.End - s.Start)
		r.Self += time.Duration(s.Self)
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// phaseSet is the obs tracer's accumulated time per phase. The tracer's
// per-phase totals are exact even after its event ring wraps.
type phaseSet map[string]time.Duration

func phaseTotals(reg *obs.Registry) phaseSet {
	out := phaseSet{}
	for _, p := range reg.Tracer().PhaseSummaries() {
		out[p.Phase] = p.Elapsed
	}
	return out
}

func (p phaseSet) minus(q phaseSet) phaseSet {
	out := phaseSet{}
	for name, d := range p {
		out[name] = d - q[name]
	}
	return out
}

func (p phaseSet) ms(name string) float64 { return float64(p[name]) / float64(time.Millisecond) }
