package obs

import (
	"context"
	"log/slog"
	"time"
)

// Span is a named wall-clock timing region. Ending a span records its
// duration (in nanoseconds) into the histogram "span.<name>" of the
// registry it was started against and, when the logger emits Debug,
// logs one structured record. A span started through StartSpanCtx (or
// StartSpanFrom) additionally carries trace identity — a trace ID
// shared with its ancestors plus its own span ID — and its completion
// is retained as one entry of the installed TraceBuffer. A nil *Span
// is inert, so callers can unconditionally defer End.
type Span struct {
	name  string
	reg   *Registry
	start time.Time
	attrs []any

	traceID  uint64 // zero for spans started outside a trace context
	spanID   uint64
	parentID uint64
}

// SpanContext is the trace identity the context carries between spans:
// the trace ID of the operation and the span ID of the currently active
// span (the parent of any span started beneath it).
type SpanContext struct {
	TraceID uint64
	SpanID  uint64
}

// spanCtxKey carries a SpanContext through a context.Context.
type spanCtxKey struct{}

// parentOf returns the trace ID and parent span ID of a span started
// under ctx: the active span's identity, or a fresh trace at the root.
func parentOf(ctx context.Context) (traceID, parentID uint64) {
	if sc, ok := ctx.Value(spanCtxKey{}).(SpanContext); ok {
		return sc.TraceID, sc.SpanID
	}
	return newID(), 0
}

// StartSpan opens a span against the default registry. The variadic
// attrs are slog key/value pairs attached to the completion record.
// The span has no trace identity; use StartSpanCtx to join a trace.
func StartSpan(name string, attrs ...any) *Span {
	return Default().StartSpan(name, attrs...)
}

// StartSpan opens a span against this registry.
func (r *Registry) StartSpan(name string, attrs ...any) *Span {
	return &Span{name: name, reg: r, start: time.Now(), attrs: attrs}
}

// StartSpanCtx opens a span against the default registry as a child of
// the span active in ctx (or as the root of a fresh trace when there is
// none) and returns a derived context carrying the new span as the
// active one.
func StartSpanCtx(ctx context.Context, name string, attrs ...any) (context.Context, *Span) {
	return Default().StartSpanCtx(ctx, name, attrs...)
}

// StartSpanCtx opens a context-propagated span against this registry.
func (r *Registry) StartSpanCtx(ctx context.Context, name string, attrs ...any) (context.Context, *Span) {
	s := r.StartSpanFrom(ctx, name, attrs...)
	return context.WithValue(ctx, spanCtxKey{}, SpanContext{TraceID: s.traceID, SpanID: s.spanID}), s
}

// StartSpanFrom opens a span parented under the span active in ctx
// without deriving a child context — the allocation-lean variant for
// leaf spans (one per Monte-Carlo trial attempt) that never start
// children of their own. Against the default registry.
func StartSpanFrom(ctx context.Context, name string, attrs ...any) *Span {
	return Default().StartSpanFrom(ctx, name, attrs...)
}

// StartSpanFrom opens a leaf span against this registry.
func (r *Registry) StartSpanFrom(ctx context.Context, name string, attrs ...any) *Span {
	s := &Span{name: name, reg: r, start: time.Now(), attrs: attrs, spanID: newID()}
	s.traceID, s.parentID = parentOf(ctx)
	return s
}

// End closes the span and returns its duration (0 for a nil span): it
// records the duration into the span's histogram and, for a span with
// trace identity, one entry into the installed ring.
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	d := time.Since(s.start)
	s.reg.Histogram("span." + s.name).RecordDuration(d)
	if tb := tracer.Load(); tb != nil && s.spanID != 0 {
		tb.add(&SpanRecord{TraceID: s.traceID, SpanID: s.spanID, ParentID: s.parentID,
			Name: s.name, Start: s.start, Dur: d, Attrs: s.attrs})
	}
	if DebugEnabled() {
		args := append([]any{slog.String("span", s.name), slog.Duration("elapsed", d)}, s.attrs...)
		Logger().Debug("span end", args...)
	}
	return d
}
