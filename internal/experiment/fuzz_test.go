package experiment

import (
	"os"
	"testing"
)

// FuzzCheckpointFile feeds arbitrary bytes as a run's checkpoint file:
// opening it succeeds (a corrupt file is ignored, not reported), and
// resuming a sweep never panics and hands back only trials inside the
// grid. The seed corpus is in testdata/fuzz.
func FuzzCheckpointFile(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte, seq uint8, n uint16) {
		dir := t.TempDir()
		if err := os.WriteFile(checkpointPath(dir, "fuzz", Quick, 7), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		store, err := openCheckpoint(dir, "fuzz", Quick, 7)
		if err != nil {
			t.Fatalf("openCheckpoint: %v", err)
		}
		for i := range store.resume(int(seq), int(n)) {
			if i < 0 || i >= int(n) {
				t.Fatalf("resume(%d, %d) returned trial %d", seq, n, i)
			}
		}
	})
}
