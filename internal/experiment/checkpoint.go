package experiment

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"vortex/internal/obs"
)

// checkpointVersion guards the on-disk schema; a file written by a
// different version is ignored and rebuilt rather than misread.
const checkpointVersion = 1

// checkpointFile is the JSON schema of one run's checkpoint. The run
// identity (runner name, scale, seed) keys the file — both in its name
// and in the header fields, which are re-validated on load — and each
// parallel sweep inside the run stores its completed trials under its
// sweep-sequence key.
type checkpointFile struct {
	Version int                         `json:"version"`
	Runner  string                      `json:"runner"`
	Scale   string                      `json:"scale"`
	Seed    uint64                      `json:"seed"`
	Sweeps  map[string]*checkpointSweep `json:"sweeps"`
}

// checkpointSweep holds one sweep's completed trials, keyed by decimal
// trial index. N is the trial-grid size: a resumed run whose grid
// disagrees (code or scale changed underneath the checkpoint) discards
// the entry instead of replaying values into the wrong cells.
type checkpointSweep struct {
	N    int                        `json:"n"`
	Done map[string]json.RawMessage `json:"done"`
}

// checkpointStore persists the completed trials of one run. Every put
// rewrites the file through a temp-file rename, so a kill at any moment
// leaves either the previous or the new consistent file — never a torn
// one — and a resumed run picks up every trial that finished.
type checkpointStore struct {
	path string

	mu   sync.Mutex
	file checkpointFile
}

// checkpointPath names a run's checkpoint file from its identity key.
func checkpointPath(dir, runner string, scale Scale, seed uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s-%s-%d.ckpt.json", runner, scale, seed))
}

// openCheckpoint loads or creates the store for one run. An existing
// file with a mismatched version or identity (stale schema, renamed
// runner) is ignored and will be overwritten; an unreadable directory
// is an error so the caller can warn and run without checkpointing.
func openCheckpoint(dir, runner string, scale Scale, seed uint64) (*checkpointStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("experiment: creating checkpoint dir: %w", err)
	}
	s := &checkpointStore{
		path: checkpointPath(dir, runner, scale, seed),
		file: checkpointFile{
			Version: checkpointVersion,
			Runner:  runner,
			Scale:   scale.String(),
			Seed:    seed,
			Sweeps:  map[string]*checkpointSweep{},
		},
	}
	sp := obs.StartSpan("experiment.checkpoint.load")
	defer sp.End()
	raw, err := os.ReadFile(s.path)
	if errors.Is(err, fs.ErrNotExist) {
		return s, nil
	}
	if err != nil {
		return nil, fmt.Errorf("experiment: reading checkpoint: %w", err)
	}
	var f checkpointFile
	if err := json.Unmarshal(raw, &f); err != nil {
		obs.Logger().Warn("corrupt checkpoint ignored", "file", s.path, "err", err)
		return s, nil
	}
	if f.Version != checkpointVersion || f.Runner != runner ||
		f.Scale != scale.String() || f.Seed != seed {
		obs.Logger().Warn("mismatched checkpoint ignored", "file", s.path,
			"version", f.Version, "runner", f.Runner, "scale", f.Scale, "seed", f.Seed)
		return s, nil
	}
	if f.Sweeps == nil {
		f.Sweeps = map[string]*checkpointSweep{}
	}
	s.file = f
	return s, nil
}

// sweepKey names sweep seq inside the file.
func sweepKey(seq int) string { return "s" + strconv.Itoa(seq) }

// resume returns the stored trial values of sweep seq for an n-trial
// grid, nil when none are stored. A stored sweep whose grid size
// disagrees with n is dropped: its values belong to a different grid.
func (s *checkpointStore) resume(seq, n int) map[int]json.RawMessage {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := sweepKey(seq)
	sw := s.file.Sweeps[key]
	if sw == nil {
		return nil
	}
	if sw.N != n {
		delete(s.file.Sweeps, key)
		return nil
	}
	out := make(map[int]json.RawMessage, len(sw.Done))
	for k, v := range sw.Done {
		i, err := strconv.Atoi(k)
		if err != nil || i < 0 || i >= n {
			continue
		}
		out[i] = v
	}
	return out
}

// put records trial i of sweep seq (an n-trial grid) and flushes the
// file atomically, so the trial survives a kill from this point on.
func (s *checkpointStore) put(seq, n, i int, raw json.RawMessage) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := sweepKey(seq)
	sw := s.file.Sweeps[key]
	if sw == nil || sw.N != n {
		sw = &checkpointSweep{N: n, Done: map[string]json.RawMessage{}}
		s.file.Sweeps[key] = sw
	}
	sw.Done[strconv.Itoa(i)] = raw
	if err := s.flushLocked(); err != nil {
		return err
	}
	obs.Default().Counter("experiment.checkpoint.writes").Inc()
	return nil
}

// trials counts the stored trials across all sweeps (resume logging).
func (s *checkpointStore) trials() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := 0
	for _, sw := range s.file.Sweeps {
		k += len(sw.Done)
	}
	return k
}

// flushLocked writes the file via temp+rename so a kill mid-write never
// corrupts an existing checkpoint. Callers hold s.mu.
func (s *checkpointStore) flushLocked() error {
	raw, err := json.Marshal(&s.file)
	if err != nil {
		return err
	}
	tmp := s.path + ".tmp"
	if err := os.WriteFile(tmp, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, s.path)
}

// flush forces a write of the current state — the exit-path final
// flush behind vortexsim's 124/130 exits.
func (s *checkpointStore) flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.flushLocked()
	if err == nil {
		obs.RecordEvent("checkpoint", "flush", "file", s.path)
	}
	return err
}

// remove deletes the checkpoint file: the run completed with nothing
// missing, so there is nothing left to resume.
func (s *checkpointStore) remove() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := os.Remove(s.path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}
