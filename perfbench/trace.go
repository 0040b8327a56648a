package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Start and End are nanoseconds
// since the run began; Parent indexes the span that caused this one, -1 for
// a root; Op names the simulation or campaign the span belongs to.
type span struct {
	Name   string `json:"name"`
	Op     string `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. Its methods are safe on
// a nil *tracer, which records nothing: an untraced operation simply holds
// a nil one.
type tracer struct {
	base time.Time

	mu    sync.Mutex
	on    bool
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// enable turns recording on for operations that start from now on.
func (t *tracer) enable() {
	t.mu.Lock()
	t.on = true
	t.mu.Unlock()
}

// active returns t when recording is on and nil otherwise, for an
// operation to hold for its whole length.
func (t *tracer) active() *tracer {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return nil
	}
	return t
}

// open records the start of a span whose end is not known yet and returns
// its index for close; -1 on a nil tracer.
func (t *tracer) open(name, op string, parent int, start time.Time) int {
	return t.add(name, op, parent, start, time.Time{})
}

// close sets the end of an opened span.
func (t *tracer) close(i int, end time.Time) {
	if t == nil || i < 0 {
		return
	}
	t.mu.Lock()
	t.spans[i].End = end.Sub(t.base).Nanoseconds()
	t.mu.Unlock()
}

// add records a finished span (or, with a zero end, an open one).
func (t *tracer) add(name, op string, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := span{Name: name, Op: op, Parent: parent, Start: start.Sub(t.base).Nanoseconds()}
	if !end.IsZero() {
		s.End = end.Sub(t.base).Nanoseconds()
	}
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// layerTime is one span name's totals: spans seen, their summed duration,
// and their summed self time (duration minus the part of it child spans
// cover).
type layerTime struct {
	n          int
	total, own time.Duration
}

// selfTimes aggregates the recorded spans by name.
func (t *tracer) selfTimes() map[string]*layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += time.Duration(s.End - s.Start)
		}
	}
	out := map[string]*layerTime{}
	for i, s := range t.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		d := time.Duration(s.End - s.Start)
		lt.n++
		lt.total += d
		lt.own += d - child[i]
	}
	return out
}

// writeSelfTimes prints one line per span name: count, total and self time.
func writeSelfTimes(w io.Writer, lt map[string]*layerTime) {
	names := make([]string, 0, len(lt))
	for n := range lt {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		l := lt[n]
		fmt.Fprintf(w, "# span %-22s n=%-6d total=%-14s self=%s\n", n, l.n, l.total, l.own)
	}
}

// write stores the spans as JSON lines under dir and returns the path.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}
