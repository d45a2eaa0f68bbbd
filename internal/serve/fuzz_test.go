package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"time"
)

// FuzzReadRequestFrame feeds arbitrary bytes to the server's request
// frame decoder. It must never panic; a decoded vector has exactly the
// expected dimension, only finite values, and consumed exactly its
// frame; an in-sync rejection (errBadFrame) consumed exactly the frame
// its header advertised, so the connection's next frame starts where
// the server resumes reading. The seed corpus is in testdata/fuzz.
func FuzzReadRequestFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, frame []byte, inputs uint16) {
		r := bytes.NewReader(frame)
		x, err := readRequestFrame(r, int(inputs))
		consumed := len(frame) - r.Len()
		switch {
		case err == nil:
			if len(x) != int(inputs) {
				t.Fatalf("decoded %d values, want %d", len(x), inputs)
			}
			for i, v := range x {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("non-finite value %v at %d accepted", v, i)
				}
			}
			if want := 4 + 8*int(inputs); consumed != want {
				t.Fatalf("accepted frame consumed %d bytes, want %d", consumed, want)
			}
		case errors.Is(err, errBadFrame):
			count := binary.LittleEndian.Uint32(frame)
			if want := 4 + 8*int64(count); int64(consumed) != want {
				t.Fatalf("in-sync rejection consumed %d bytes, want the advertised %d", consumed, want)
			}
		}
	})
}

// FuzzReadResponseFrame checks that OK and error response frames
// survive a write → read round trip bit for bit, and that the client's
// decoder does not panic on arbitrary bytes. The seed corpus is in
// testdata/fuzz.
func FuzzReadResponseFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, class int32, degraded bool, raw []byte, status byte, retryMs uint32, msg string) {
		readResponseFrame(bytes.NewReader(raw))

		scores := make([]float64, len(raw)/8)
		for i := range scores {
			scores[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		var buf bytes.Buffer
		if err := writeOKFrame(&buf, Classification{Class: int(class), Scores: scores, Degraded: degraded}); err != nil {
			t.Fatal(err)
		}
		cls, err := readResponseFrame(&buf)
		if err != nil {
			t.Fatalf("OK frame did not decode: %v", err)
		}
		if cls.Class != int(class) || cls.Degraded != degraded || len(cls.Scores) != len(scores) {
			t.Fatalf("OK frame decoded to %+v, want class %d degraded %v with %d scores",
				cls, class, degraded, len(scores))
		}
		for i, v := range cls.Scores {
			if math.Float64bits(v) != math.Float64bits(scores[i]) {
				t.Fatalf("score %d decoded to %v, want %v", i, v, scores[i])
			}
		}
		if buf.Len() != 0 {
			t.Fatalf("OK frame left %d bytes unread", buf.Len())
		}

		if status == StatusOK {
			return
		}
		buf.Reset()
		retryAfter := time.Duration(retryMs) * time.Millisecond
		if err := writeErrorFrame(&buf, status, retryAfter, msg); err != nil {
			t.Fatal(err)
		}
		_, err = readResponseFrame(&buf)
		var rerr *RemoteError
		if !errors.As(err, &rerr) {
			if len(msg) > 1<<16 && err != nil {
				return // the decoder's bound on error messages
			}
			t.Fatalf("error frame decoded to %v, want a RemoteError", err)
		}
		if rerr.Status != status || rerr.RetryAfter != retryAfter || rerr.Msg != msg {
			t.Fatalf("error frame decoded to %+v, want status %d retry %v msg %q", rerr, status, retryAfter, msg)
		}
		if buf.Len() != 0 {
			t.Fatalf("error frame left %d bytes unread", buf.Len())
		}
	})
}
