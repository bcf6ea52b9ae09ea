package obs

import "time"

// SpanRecord is one completed phase span: a named stretch of work with
// wall-clock and process-CPU time. Registry spans are flat run-level
// phases (bench rows, simulator runs); nested per-request phases live on
// an obs.Trace, which carries real parent links.
type SpanRecord struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // offset from the registry's first span
	WallNs  int64  `json:"wall_ns"`
	CPUNs   int64  `json:"cpu_ns"` // process CPU time consumed during the span
}

// Span is an open phase span; End completes it. A nil *Span (from a nil
// registry) is a no-op.
type Span struct {
	r     *Registry
	name  string
	start time.Time
	cpu   int64
}

// StartSpan opens a phase span. On a nil registry the returned span is
// nil and End is free.
func (r *Registry) StartSpan(name string) *Span {
	if r == nil {
		return nil
	}
	return &Span{
		r:     r,
		name:  name,
		start: time.Now(),
		cpu:   processCPUNs(),
	}
}

// End completes the span, recording wall and CPU time.
func (s *Span) End() {
	if s == nil {
		return
	}
	wall := time.Since(s.start)
	cpu := processCPUNs() - s.cpu
	r := s.r
	r.mu.Lock()
	if r.spanEpoch.IsZero() {
		r.spanEpoch = s.start
	}
	r.spans = append(r.spans, SpanRecord{
		Name:    s.name,
		StartNs: s.start.Sub(r.spanEpoch).Nanoseconds(),
		WallNs:  wall.Nanoseconds(),
		CPUNs:   cpu,
	})
	r.mu.Unlock()
}

// Spans returns the completed span records in completion order.
func (r *Registry) Spans() []SpanRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]SpanRecord(nil), r.spans...)
}
