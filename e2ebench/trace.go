package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one op share Op (the
// op index of the timed phase, -1 for set-up); Parent is the index of the
// enclosing span, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths pass nil and pay one branch per call.
// Spans may be recorded from the client, reader and server goroutines.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now, End: now})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose bounds were taken elsewhere.
func (t *tracer) add(name string, op, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	return len(t.spans) - 1
}

// layerStat aggregates every span of one name.
type layerStat struct {
	count int
	total time.Duration
}

func (l layerStat) mean() time.Duration {
	if l.count == 0 {
		return 0
	}
	return l.total / time.Duration(l.count)
}

// byName aggregates the spans per name.
func (t *tracer) byName() map[string]layerStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]layerStat{}
	for _, s := range t.spans {
		l := out[s.Name]
		l.count++
		l.total += s.dur()
		out[s.Name] = l
	}
	return out
}

// perOp sums the durations of the named spans per op.
func (t *tracer) perOp(name string) map[int]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[int]time.Duration{}
	for _, s := range t.spans {
		if s.Name == name {
			out[s.Op] += s.dur()
		}
	}
	return out
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}
