package experiment

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.sha256 from the current runners")

// goldenPath holds one "<sha256>  <runner>/seed=<n>" line per pinned
// output, in sha256sum's format.
const goldenPath = "testdata/golden.sha256"

// goldenSeeds are the seeds every runner is pinned at.
var goldenSeeds = []uint64{1, 2, 3}

// TestGoldenOutputs pins the SHA-256 of every runner's quick-scale CSV
// at three seeds (All: the crashdemo fixture is left out). A refactor or
// speed-up must leave every digest unchanged; a change that moves a
// figure on purpose regenerates them with
//
//	go test ./internal/experiment/ -run TestGoldenOutputs -update
//
// and justifies the diff.
func TestGoldenOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every runner at three seeds")
	}
	got := map[string]string{}
	for _, r := range All() {
		for _, seed := range goldenSeeds {
			key := fmt.Sprintf("%s/seed=%d", r.Name, seed)
			res, err := r.Run(context.Background(), Quick, seed)
			if err != nil {
				t.Errorf("%s: %v", key, err)
				continue
			}
			sum := sha256.Sum256([]byte(res.CSV()))
			got[key] = hex.EncodeToString(sum[:])
		}
	}
	if *update {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "%s  %s\n", got[k], k)
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := readGolden(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	for k, w := range want {
		g, ok := got[k]
		switch {
		case !ok:
			t.Errorf("%s: pinned but not produced", k)
		case g != w:
			t.Errorf("%s: CSV digest %s, pinned %s", k, g, w)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: produced but not pinned (rerun with -update)", k)
		}
	}
}

// readGolden parses a golden digest file into key -> hex digest.
func readGolden(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		sum, key, ok := strings.Cut(sc.Text(), "  ")
		if !ok {
			return nil, fmt.Errorf("%s: malformed line %q", path, sc.Text())
		}
		out[key] = sum
	}
	return out, sc.Err()
}
