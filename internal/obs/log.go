package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"sync/atomic"
)

// The package logger. Libraries log through Logger() (or the L shortcut)
// so front ends and tests can swap the destination, format and level in
// one place with SetLogger. The default logger discards everything:
// importing an instrumented package must not make a quiet binary
// (examples, tests, scripts) start printing.
var pkgLogger atomic.Pointer[slog.Logger]

func init() {
	pkgLogger.Store(slog.New(discardHandler{}))
}

// Logger returns the current package logger. Never nil.
func Logger() *slog.Logger { return pkgLogger.Load() }

// SetLogger installs l as the package logger and returns the previous
// one (so tests can restore it). A nil l restores the discarding
// default.
func SetLogger(l *slog.Logger) *slog.Logger {
	if l == nil {
		l = slog.New(discardHandler{})
	}
	return pkgLogger.Swap(l)
}

// DebugEnabled reports whether the current logger emits Debug records —
// the guard hot paths use before assembling expensive log attributes.
func DebugEnabled() bool {
	return Logger().Enabled(context.Background(), slog.LevelDebug)
}

// ParseLevel parses a log level name (debug, info, warn, error).
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "info", "":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	default:
		return 0, fmt.Errorf("obs: unknown log level %q (want debug, info, warn or error)", s)
	}
}

// NewLogger builds a slog.Logger writing to w in the given format
// ("text" or "json") at the given level.
func NewLogger(w io.Writer, format string, level slog.Level) (*slog.Logger, error) {
	opts := &slog.HandlerOptions{Level: level}
	switch strings.ToLower(format) {
	case "text", "":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("obs: unknown log format %q (want text or json)", format)
	}
}

// discardHandler is a slog.Handler that drops everything and reports
// every level as disabled, so guarded call sites skip attribute
// assembly entirely. (slog.DiscardHandler arrived in go1.24; this keeps
// the module buildable at its declared go1.22.)
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }
