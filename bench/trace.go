package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// spanBatch is how many calls into a layer one replay span covers: a clock
// read per call would dominate calls that take ~100 ns, so the replays read
// the clock once per batch and record one span for it.
const spanBatch = 4096

// span is one interval at a layer boundary: the layer function the
// benchmark called (e.g. "smc.ServeOne"), when, and the span that caused it.
type span struct {
	id, parent int
	name       string
	start, end time.Duration // since the tracer's epoch
}

// tracer keeps spans in memory; write exports them once, at exit. A tracer
// that is off, as it starts, records nothing and returns span id 0.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if !t.on {
		return 0
	}
	t.spans = append(t.spans, span{
		id: len(t.spans) + 1, parent: parent, name: name,
		start: start.Sub(t.epoch), end: end.Sub(t.epoch),
	})
	return len(t.spans)
}

// open records a span whose end is not known yet; finish closes it.
func (t *tracer) open(name string, parent int) int {
	now := time.Now()
	return t.add(name, parent, now, now)
}

func (t *tracer) finish(id int) {
	if id > 0 {
		t.spans[id-1].end = time.Since(t.epoch)
	}
}

// traceEvent is one Chrome trace-event ("X" = complete event, times in
// microseconds). The span tree travels in args, since the format has no
// parent field of its own.
type traceEvent struct {
	Name string    `json:"name"`
	Cat  string    `json:"cat"`
	Ph   string    `json:"ph"`
	TS   float64   `json:"ts"`
	Dur  float64   `json:"dur"`
	PID  int       `json:"pid"`
	TID  int       `json:"tid"`
	Args traceArgs `json:"args"`
}

type traceArgs struct {
	ID     int `json:"id"`
	Parent int `json:"parent"`
}

type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// write exports the spans as Chrome trace-event JSON (loadable in
// chrome://tracing and Perfetto).
func (t *tracer) write(path string) error {
	out := traceFile{DisplayTimeUnit: "ns", TraceEvents: make([]traceEvent, 0, len(t.spans))}
	for _, s := range t.spans {
		cat, _, _ := strings.Cut(s.name, ".")
		out.TraceEvents = append(out.TraceEvents, traceEvent{
			Name: s.name, Cat: cat, Ph: "X",
			TS:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			PID: 1, TID: 1,
			Args: traceArgs{ID: s.id, Parent: s.parent},
		})
	}
	data, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("bench: encoding trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("bench: writing trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("bench: writing trace: %w", err)
	}
	return nil
}
