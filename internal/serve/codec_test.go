package serve

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingConn counts the Write calls made on a connection.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

// Write implements net.Conn.
func (c *countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// countingListener wraps every accepted connection in a countingConn.
type countingListener struct {
	net.Listener
	mu    sync.Mutex
	conns []*countingConn
}

// Accept implements net.Listener.
func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	cc := &countingConn{Conn: c}
	l.mu.Lock()
	l.conns = append(l.conns, cc)
	l.mu.Unlock()
	return cc, nil
}

// TestBinaryOneWritePerFrame: at Full width (784 inputs, a 6,276-byte
// request frame, larger than a default bufio.Writer) the client sends
// each request frame with one Write, and the server answers each with
// one Write.
func TestBinaryOneWritePerFrame(t *testing.T) {
	const inputs, requests = 784, 5
	s, err := New(Config{Inputs: inputs, Engine: &stubEngine{}})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &countingListener{Listener: ln}
	done := make(chan error, 1)
	go func() { done <- s.Serve(cl) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		<-done
	}()

	c, err := DialBinary(ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cc := &countingConn{Conn: c.conn}
	c.conn = cc
	x := make([]float64, inputs)
	for k := 0; k < requests; k++ {
		for i := range x {
			x[i] = float64((i+k)%7) / 7
		}
		cls, err := c.Classify(x)
		if err != nil {
			t.Fatal(err)
		}
		if want := stubScores(x); len(cls.Scores) != len(want) || cls.Scores[3] != want[3] {
			t.Fatalf("request %d answered %v, want %v", k, cls.Scores, want)
		}
	}
	if got := cc.writes.Load(); got != requests {
		t.Errorf("client made %d writes for %d request frames, want one each", got, requests)
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if len(cl.conns) != 1 {
		t.Fatalf("server accepted %d connections, want 1", len(cl.conns))
	}
	if got := cl.conns[0].writes.Load(); got != requests {
		t.Errorf("server made %d writes for %d responses, want one each", got, requests)
	}
}

// loopReader replays one frame forever.
type loopReader struct {
	frame []byte
	off   int
}

// Read implements io.Reader.
func (l *loopReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		c := copy(p[n:], l.frame[l.off:])
		n += c
		l.off = (l.off + c) % len(l.frame)
	}
	return n, nil
}

// TestBinaryCodecAllocsZero: in steady state a connection decodes a
// Full-width request frame and encodes its OK response without
// allocating, and the client encodes its request frame without
// allocating.
func TestBinaryCodecAllocsZero(t *testing.T) {
	const inputs = 784
	x := make([]float64, inputs)
	for i := range x {
		x[i] = float64(i%5) / 5
	}
	fr := newFrameReader(&loopReader{frame: appendRequestFrame(nil, x)}, inputs)
	cls := Classification{Class: 3, Scores: make([]float64, 10)}
	var out []byte
	server := testing.AllocsPerRun(100, func() {
		got, err := fr.next()
		if err != nil || len(got) != inputs {
			t.Fatalf("decode: %d values, %v", len(got), err)
		}
		out = appendOKFrame(out[:0], cls)
	})
	if server != 0 {
		t.Errorf("server frame decode + OK encode allocates %v per frame, want 0", server)
	}
	var frame []byte
	client := testing.AllocsPerRun(100, func() {
		frame = appendRequestFrame(frame[:0], x)
	})
	if client != 0 {
		t.Errorf("client frame encode allocates %v per frame, want 0", client)
	}
}
