package main

import (
	"sort"
	"strconv"
	"sync"
	"time"

	"transched/internal/obs"
)

// spans keeps one record per timed call into a module while a traced run
// is on: name, start, end and the span that caused it. A nil *spans
// records nothing, so an untraced run pays only the two clock reads that
// every timed call needs for its end-to-end latency anyway.
type spans struct {
	t0   time.Time
	mu   sync.Mutex
	recs []spanRec
}

type spanRec struct {
	name       string
	tid        int
	parent     int // index into recs, -1 for a root span
	start, end time.Duration
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// span is one open timed call; stop closes it.
type span struct {
	s     *spans
	id    int
	start time.Time
}

// start opens a span named name on track tid under parent (-1 for none).
func (s *spans) start(name string, tid, parent int) span {
	sp := span{s: s, id: -1, start: time.Now()}
	if s != nil {
		s.mu.Lock()
		sp.id = len(s.recs)
		s.recs = append(s.recs, spanRec{name: name, tid: tid, parent: parent, start: sp.start.Sub(s.t0)})
		s.mu.Unlock()
	}
	return sp
}

// stop closes the span and returns its wall time.
func (sp span) stop() time.Duration {
	end := time.Now()
	if sp.s != nil {
		sp.s.mu.Lock()
		sp.s.recs[sp.id].end = end.Sub(sp.s.t0)
		sp.s.mu.Unlock()
	}
	return end.Sub(sp.start)
}

// add records a span whose bounds were measured elsewhere.
func (s *spans) add(name string, tid, parent int, start time.Time, d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	at := start.Sub(s.t0)
	s.recs = append(s.recs, spanRec{name: name, tid: tid, parent: parent, start: at, end: at + d})
	s.mu.Unlock()
}

// timed runs fn inside a span and returns its wall time.
func (s *spans) timed(name string, tid, parent int, fn func()) time.Duration {
	sp := s.start(name, tid, parent)
	fn()
	return sp.stop()
}

// childSum returns the summed duration of parent's direct children.
func (s *spans) childSum(parent int) time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var sum time.Duration
	for _, r := range s.recs {
		if r.parent == parent && parent >= 0 {
			sum += r.end - r.start
		}
	}
	return sum
}

// durations returns the durations of every closed span with this name.
func (s *spans) durations(name string) []time.Duration {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []time.Duration
	for _, r := range s.recs {
		if r.name == name && r.end > 0 {
			out = append(out, r.end-r.start)
		}
	}
	return out
}

// export writes the spans into tr as one process with one thread per
// track, each span carrying its id and its parent's id and name.
func (s *spans) export(tr *obs.Trace, process string) {
	if s == nil || tr == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	pid := tr.NextPID()
	tr.NameProcess(pid, process)
	tids := map[int]bool{}
	for i, r := range s.recs {
		tids[r.tid] = true
		args := map[string]any{"id": i}
		if r.parent >= 0 {
			args["parent"] = r.parent
			args["parent_name"] = s.recs[r.parent].name
		}
		tr.Span(pid, r.tid, r.name, us(r.start), us(r.end-r.start), args)
	}
	ids := make([]int, 0, len(tids))
	for tid := range tids {
		//transched:allow-maporder sorted on the next line
		ids = append(ids, tid)
	}
	sort.Ints(ids)
	for _, tid := range ids {
		tr.NameThread(pid, tid, trackName(tid))
	}
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// trackName labels a span track: track 0 is the benchmark's own
// goroutine, track i > 0 is load-generator connection i-1.
func trackName(tid int) string {
	if tid == 0 {
		return "bench"
	}
	return "connection " + strconv.Itoa(tid-1)
}
