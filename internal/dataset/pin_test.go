package dataset

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"

	"vortex/internal/rng"
)

// hashSet writes a set into h: its size, then every sample's label and
// pixel bits in order.
func hashSet(h hash.Hash, s *Set) {
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(s.Size))
	put(uint64(s.Len()))
	for _, sample := range s.Samples {
		put(uint64(sample.Label))
		for _, p := range sample.Pixels {
			put(math.Float64bits(p))
		}
	}
}

// renderPins are SHA-256 digests of rendered sets, taken from a serial
// render that made one rng call per draw. The other render tests
// compare the render with itself (at another factor, or sequentially);
// these pin it against fixed values, so a change every factor shares
// still shows.
var renderPins = map[string]string{
	"digits factor 1 seed 1":    "f56d68fdc87e2b06970842263b641ae2dcf691a947cb61f7abac3425affa1628",
	"digits factor 1 seed 2":    "11446b6ed073e23d1249bfeef813787a0dc500598bc51975acf15f99f5974c0a",
	"digits factor 1 seed 3":    "b5cfb83b41d452c57b503505df4899f614b3850e67f69b27ba8cb70a455af18e",
	"digits factor 2 seed 1":    "b5bb7d34dce6a43b8ecd8eb737b07d57d4b3a77fd6f3baf861ec1bc28157f7ac",
	"digits factor 2 seed 2":    "5690fd9664b7b06517aaa14a0f4fe6bc38eb7fba36a5976bb8bea5ff614192c9",
	"digits factor 2 seed 3":    "a009779a8dbf2b5896a015ce15691363c5fa0cc99ad6fcedfe31ae67264d0c61",
	"digits factor 4 seed 1":    "7db737760cca46051b755d1cfd87884e3584adedfbdfd4584ad9c13b0e6810f7",
	"digits factor 4 seed 2":    "0678bb8c530c92d610f4e91e0982ebf388c75eb9abfdc365c3cdac2a25b76d58",
	"digits factor 4 seed 3":    "f6962508e65ed13b774f3c153f409a4139c7e5176a3a713a014067b9428ed46a",
	"balanced seed 1":           "925e4df0759c4e304b06cd97abb0858239edacd95c815f48ce1d9a7ebdf3f9f4",
	"balanced seed 2":           "caa431f3169761aedfdeadeeed3db144bcc51f055221047fce59d26d8e348836",
	"balanced seed 3":           "0dce5222be592bb4d582c97fac211010d40859d630962dfd3d905a99d1cc51a1",
	"balanced no jitter seed 1": "b363235c8f8011cfc598fc29cda1331d931d22d3853cc8a2f7b78079e7c180a6",
	"balanced no jitter seed 2": "cd001c23ad71ed7867c2f1e60fb544dc207024edbd26e2ccb18304665ff123a0",
	"balanced no jitter seed 3": "fd6790047909ed4cfc593a3bc3462d9f3fb34446dd020b7364f7812500618448",
}

// TestRenderPinned: Digits' train and test sets at factors 1, 2 and 4,
// and GenerateBalanced with the source's next draw, hash to the pinned
// digests at seeds 1-3. Odd per-class counts give the factor-1 halves
// unequal label runs.
func TestRenderPinned(t *testing.T) {
	got := map[string]string{}
	for seed := uint64(1); seed <= 3; seed++ {
		for _, factor := range []int{1, 2, 4} {
			train, test, err := Digits(3, 2, factor, seed)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			hashSet(h, train)
			hashSet(h, test)
			got[fmt.Sprintf("digits factor %d seed %d", factor, seed)] = hex.EncodeToString(h.Sum(nil))
		}
		for _, c := range []struct {
			name string
			cfg  func() Config
		}{
			{"balanced", DefaultConfig},
			{"balanced no jitter", func() Config {
				cfg := DefaultConfig()
				cfg.PointJit, cfg.FlipProb = 0, 0.3
				return cfg
			}},
		} {
			src := rng.New(seed)
			set, err := GenerateBalanced(c.cfg(), 5, src)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			hashSet(h, set)
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], src.Uint64())
			h.Write(b[:])
			got[fmt.Sprintf("%s seed %d", c.name, seed)] = hex.EncodeToString(h.Sum(nil))
		}
	}
	for name, want := range renderPins {
		if got[name] != want {
			t.Errorf("%s: digest %s, pinned %s", name, got[name], want)
		}
	}
	if len(got) != len(renderPins) {
		t.Errorf("rendered %d sets, %d pinned", len(got), len(renderPins))
	}
}
