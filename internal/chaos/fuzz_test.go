package chaos

import "testing"

// FuzzParseMode feeds arbitrary strings to the -chaos flag parser. It
// must never panic; a string it accepts yields a mode with no bit
// outside ModeAll that survives a String → ParseMode round trip. The
// seed corpus is in testdata/fuzz.
func FuzzParseMode(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		m, err := ParseMode(s)
		if err != nil {
			return
		}
		if m&^ModeAll != 0 {
			t.Fatalf("ParseMode(%q) = %#x sets bits outside ModeAll", s, uint32(m))
		}
		back, err := ParseMode(m.String())
		if err != nil || back != m {
			t.Fatalf("ParseMode(%q) = %v, but ParseMode(%q) = %v, %v", s, m, m.String(), back, err)
		}
	})
}
