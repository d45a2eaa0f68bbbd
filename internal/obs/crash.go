package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// Post-mortems. When a run dies (panic escape, SIGQUIT, timeout) a
// front end dumps the ring's newest entries with the metrics snapshot
// and a run manifest. They answer what the counters cannot — not "how
// many breakers tripped" but "what happened right before this one did"
// — and place each event in its span tree.

// dumpEntries is how many of the ring's newest entries a crash dump
// renders.
const dumpEntries = 256

// Event is one entry of a crash dump: a point event, or a completed
// span with kind "span", its elapsed time among the attrs and its hex
// trace, span and parent IDs (parent empty for a root). Time is an
// event's record time and a span's start. Attrs are strings, so a dump
// always marshals whatever the attr types (errors, durations, ±Inf
// floats).
type Event struct {
	Time   time.Time         `json:"time"`
	Kind   string            `json:"kind"`
	Name   string            `json:"name"`
	Trace  string            `json:"trace,omitempty"`
	Span   string            `json:"span,omitempty"`
	Parent string            `json:"parent,omitempty"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// dumpEvent renders one ring entry for a crash dump.
func dumpEvent(rec SpanRecord) Event {
	ev := Event{Time: rec.Start, Kind: rec.Kind, Name: rec.Name, Attrs: map[string]string{}}
	if rec.Kind == "" {
		ev.Kind, ev.Trace, ev.Span = "span", hexID(rec.TraceID), hexID(rec.SpanID)
		ev.Parent = hexID(rec.ParentID)
		ev.Attrs["elapsed"] = rec.Dur.String()
	}
	for i := 0; i+1 < len(rec.Attrs); i += 2 {
		ev.Attrs[fmt.Sprint(rec.Attrs[i])] = fmt.Sprint(rec.Attrs[i+1])
	}
	return ev
}

// hexID formats a nonzero ID as the Chrome export does; zero is "".
func hexID(id uint64) string {
	if id == 0 {
		return ""
	}
	return fmt.Sprintf("%016x", id)
}

// Manifest identifies one run for post-mortems: what was run, with
// which flags and seed, on which toolchain and kernel dispatch level.
// Front ends install one with SetManifest right after flag parsing so
// every crash dump is self-describing.
type Manifest struct {
	Command    string            `json:"command,omitempty"`
	Experiment string            `json:"experiment,omitempty"`
	Scale      string            `json:"scale,omitempty"`
	Seed       uint64            `json:"seed"`
	Flags      map[string]string `json:"flags,omitempty"`
	GoVersion  string            `json:"go_version"`
	GOOS       string            `json:"goos"`
	GOARCH     string            `json:"goarch"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	KernelISA  string            `json:"kernel_isa,omitempty"`
	PID        int               `json:"pid"`
	Start      time.Time         `json:"start"`
}

var manifest atomic.Pointer[Manifest]

// SetManifest installs the run manifest attached to crash dumps.
func SetManifest(m Manifest) { manifest.Store(&m) }

// CurrentManifest returns the installed manifest, reporting whether one
// was set.
func CurrentManifest() (Manifest, bool) {
	if m := manifest.Load(); m != nil {
		return *m, true
	}
	return Manifest{}, false
}

// CrashDump is the post-mortem artifact: why the run died, the run
// manifest, the final metrics snapshot, and the ring's newest entries
// in start-time order. EventsDropped counts the entries recorded
// before that window.
type CrashDump struct {
	Reason        string    `json:"reason"`
	Time          time.Time `json:"time"`
	Manifest      *Manifest `json:"manifest,omitempty"`
	Metrics       Snapshot  `json:"metrics"`
	Events        []Event   `json:"events"`
	EventsDropped int64     `json:"events_dropped,omitempty"`
}

// BuildCrashDump assembles a dump from the process defaults: the
// installed manifest, the default registry's snapshot, and the newest
// dumpEntries entries of the installed ring.
func BuildCrashDump(reason string) CrashDump {
	d := CrashDump{Reason: reason, Time: time.Now()}
	if m, ok := CurrentManifest(); ok {
		d.Manifest = &m
	}
	d.Metrics = Default().Snapshot()
	tb := tracer.Load()
	recs := tb.recent(dumpEntries)
	d.Events = make([]Event, len(recs))
	for i, rec := range recs {
		d.Events[i] = dumpEvent(rec)
	}
	d.EventsDropped = tb.Dropped() + int64(tb.Len()-len(recs))
	return d
}

// WriteCrashDump writes the assembled dump as indented JSON. A metrics
// snapshot that fails to marshal (a gauge someone set to ±Inf) is
// dropped rather than losing the whole dump.
func WriteCrashDump(w io.Writer, reason string) error {
	d := BuildCrashDump(reason)
	raw, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		d.Metrics = Snapshot{}
		if raw, err = json.MarshalIndent(d, "", "  "); err != nil {
			return fmt.Errorf("obs: encoding crash dump: %w", err)
		}
	}
	_, err = w.Write(append(raw, '\n'))
	return err
}

// DumpCrash writes a crash dump file named crash-<runner>-<unix-ts>.json
// under dir (created if needed) and returns its path. runner should be
// the experiment or command identity; it is sanitized into the
// filename.
func DumpCrash(dir, runner, reason string) (string, error) {
	if dir == "" {
		dir = "."
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("obs: crash dump dir: %w", err)
	}
	name := fmt.Sprintf("crash-%s-%d.json", sanitizeFile(runner), time.Now().UnixNano())
	path := filepath.Join(dir, name)
	fh, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("obs: crash dump file: %w", err)
	}
	werr := WriteCrashDump(fh, reason)
	if cerr := fh.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return "", werr
	}
	return path, nil
}

// sanitizeFile keeps a runner name filesystem-safe.
func sanitizeFile(s string) string {
	if s == "" {
		return "run"
	}
	b := []byte(s)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_', c == '.':
		default:
			b[i] = '_'
		}
	}
	return string(b)
}
