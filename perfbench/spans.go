package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"sort"
	"strings"
	"sync"
	"time"

	"slicc/internal/telemetry"
)

// spanRec is one finished span, from this process or parsed from a
// child's debug log.
type spanRec struct {
	Name, ID, Parent, Trace string
	Start, End              time.Time
}

func (s spanRec) dur() time.Duration { return s.End.Sub(s.Start) }

// logRec is one structured log line: its time, message and attributes.
type logRec struct {
	Time  time.Time
	Msg   string
	Attrs map[string]any
}

// spanSink is a slog.Handler that keeps every "span" event in memory.
// Attached as a telemetry.Tracer's Logger, it records the in-process
// span tree (the tracer's own OnSpan hook sees only name and duration).
type spanSink struct {
	mu    sync.Mutex
	spans []spanRec
}

func (h *spanSink) Enabled(context.Context, slog.Level) bool { return true }
func (h *spanSink) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *spanSink) WithGroup(string) slog.Handler            { return h }

func (h *spanSink) Handle(_ context.Context, r slog.Record) error {
	if r.Message != "span" {
		return nil
	}
	attrs := map[string]any{}
	r.Attrs(func(a slog.Attr) bool {
		attrs[a.Key] = a.Value.Any()
		return true
	})
	if s, ok := spanFromAttrs(r.Time, attrs); ok {
		h.mu.Lock()
		h.spans = append(h.spans, s)
		h.mu.Unlock()
	}
	return nil
}

// passContext is the root context of a pass. A traced pass carries a
// tracer whose spans the returned sink keeps; an untraced one carries
// none, so the benchmark's own spans are inert and the sink stays empty.
func passContext(traced bool) (context.Context, *spanSink) {
	sink := &spanSink{}
	if !traced {
		return context.Background(), sink
	}
	return telemetry.WithTracer(context.Background(), &telemetry.Tracer{Logger: slog.New(sink)}), sink
}

func (h *spanSink) take() []spanRec {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := h.spans
	h.spans = nil
	return out
}

// spanFromAttrs rebuilds a span from its end event: the event time is the
// span's end, and the duration attribute (a time.Duration in process, its
// nanosecond count in JSON) gives the start.
func spanFromAttrs(end time.Time, a map[string]any) (spanRec, bool) {
	name, _ := a["span"].(string)
	id, _ := a["span_id"].(string)
	if name == "" || id == "" {
		return spanRec{}, false
	}
	var d time.Duration
	switch v := a["duration"].(type) {
	case time.Duration:
		d = v
	case float64:
		d = time.Duration(v)
	case int64:
		d = time.Duration(v)
	default:
		return spanRec{}, false
	}
	s := spanRec{Name: name, ID: id, Start: end.Add(-d), End: end}
	s.Parent, _ = a["parent_id"].(string)
	s.Trace, _ = a["trace_id"].(string)
	return s, true
}

// parseJSONLog reads a `-log-format json` stream, keeping every line that
// parses as a log record (anything else a process prints is skipped).
func parseJSONLog(r io.Reader) []logRec {
	var out []logRec
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 || line[0] != '{' {
			continue
		}
		var a map[string]any
		if json.Unmarshal(line, &a) != nil {
			continue
		}
		ts, _ := a["time"].(string)
		t, err := time.Parse(time.RFC3339Nano, ts)
		if err != nil {
			continue
		}
		msg, _ := a["msg"].(string)
		out = append(out, logRec{Time: t, Msg: msg, Attrs: a})
	}
	return out
}

// logSpans extracts the span events of a parsed log.
func logSpans(recs []logRec) []spanRec {
	var out []spanRec
	for _, r := range recs {
		if r.Msg != "span" {
			continue
		}
		if s, ok := spanFromAttrs(r.Time, r.Attrs); ok {
			out = append(out, s)
		}
	}
	return out
}

// adopt links spans recorded in another process under the benchmark span
// that caused them: a child-process span with no parent whose trace ID is
// a benchmark span's ID (each request carries its span's ID as
// X-Request-ID, which the service uses as the trace ID) becomes that
// span's child.
func adopt(bench, child []spanRec) []spanRec {
	ids := map[string]bool{}
	for _, s := range bench {
		ids[s.ID] = true
	}
	out := append([]spanRec(nil), bench...)
	for _, s := range child {
		if s.Parent == "" && ids[s.Trace] {
			s.Parent = s.Trace
		}
		out = append(out, s)
	}
	return out
}

// layerTime aggregates one span name across a trace.
type layerTime struct {
	Count int
	Total time.Duration
	// Self is Total minus the part of each span its children cover.
	Self time.Duration
}

// breakdown computes per-name totals and self times, and the unattributed
// remainder: the part of the root spans (named root) that no span of the
// program covers. The benchmark's own spans only mark what it asked
// for, so they attribute nothing.
func breakdown(spans []spanRec, root string) (map[string]layerTime, time.Duration, time.Duration) {
	kids := map[string][]spanRec{}
	for _, s := range spans {
		if s.Parent != "" {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	// Keep only the trees under the roots: spans of requests made outside
	// the measured window (set-up, verification) are not part of it.
	var tree, program []spanRec
	var walk func(s spanRec)
	walk = func(s spanRec) {
		tree = append(tree, s)
		if layerOf(s.Name) != "bench" {
			program = append(program, s)
		}
		for _, c := range kids[s.ID] {
			walk(c)
		}
	}
	for _, s := range spans {
		if s.Name == root && s.Parent == "" {
			walk(s)
		}
	}
	out := map[string]layerTime{}
	var remainder, rootTotal time.Duration
	for _, s := range tree {
		lt := out[s.Name]
		lt.Count++
		lt.Total += s.dur()
		lt.Self += s.dur() - covered(s, kids[s.ID])
		out[s.Name] = lt
		if s.Name == root && s.Parent == "" {
			remainder += s.dur() - covered(s, program)
			rootTotal += s.dur()
		}
	}
	return out, remainder, rootTotal
}

// covered returns how much of parent's interval the union of the
// children's intervals covers (children run concurrently, so they may
// overlap one another and outlive the parent).
func covered(parent spanRec, children []spanRec) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range children {
		a, b := c.Start, c.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a.After(cur.b):
			total += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// layerOf maps a span name to its layer: the part before the first dot.
func layerOf(span string) string {
	layer, _, _ := strings.Cut(span, ".")
	return layer
}
