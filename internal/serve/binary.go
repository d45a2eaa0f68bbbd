package serve

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"time"
)

// The binary hot path shares the HTTP listener: a connection whose
// first four bytes are Magic speaks length-prefixed frames instead of
// HTTP. All integers are little-endian.
//
// Request frame:   [u32 count][count x f64]        one input vector
// Response frame:  [u8 status] then
//   StatusOK:          [i32 class][u8 degraded][u32 n][n x f64 scores]
//   anything else:     [u32 retryAfterMs][u32 len][len bytes message]
//
// Requests on one connection are answered in order, one response per
// request; concurrency comes from opening more connections, and the
// server's micro-batcher coalesces frames across connections.

// Magic is the 4-byte connection preamble that selects the binary
// protocol on the shared listener.
var Magic = [4]byte{'V', 'X', 'B', '1'}

// Binary response status codes.
const (
	// StatusOK answers a classified request.
	StatusOK byte = 0
	// StatusBadRequest rejects a malformed frame (wrong dimension,
	// non-finite values, oversized count).
	StatusBadRequest byte = 1
	// StatusOverloaded rejects a frame because the request queue is
	// full; retry after the advertised back-off.
	StatusOverloaded byte = 2
	// StatusDraining rejects a frame because the server is shutting
	// down; the connection is closed after the response.
	StatusDraining byte = 3
	// StatusInternal reports an engine failure for an admitted request.
	StatusInternal byte = 4
	// StatusDeadlineExceeded answers an admitted request whose
	// per-request deadline passed before the engine could compute it.
	// The read is idempotent; the client may retry.
	StatusDeadlineExceeded byte = 5
)

// maxFrameFloats bounds a request frame's element count (guards the
// server against a hostile length prefix; generous above the largest
// real input dimension).
const maxFrameFloats = 1 << 20

// handleBinary speaks the framed protocol on one connection until the
// client closes it, a frame is malformed beyond recovery, a timeout
// fires, or drain pokes the idle read. Each frame is admitted through
// the same queue as HTTP requests.
//
// The connection decodes every request into one reused vector and
// encodes every response into one reused buffer, written with a single
// Write. Reusing the vector is safe because submit blocks until the
// worker has answered, and an Engine must not keep its inputs after
// ReadBatchCtx returns.
//
// Timeout discipline (the binary slowloris defense): waiting for the
// next frame's first byte is bounded by IdleTimeout; once a frame has
// started, the rest of it must arrive within ReadTimeout — a client
// trickling one byte per minute cannot hold the handler hostage.
// Responses are bounded by WriteTimeout. The clock reads that arm the
// two deadlines also time an answered frame's decode stage (first byte
// to decoded vector) and encode_write stage (answer to written frame).
func (s *Server) handleBinary(c net.Conn) {
	s.connsMu.Lock()
	s.conns[c] = struct{}{}
	s.connsMu.Unlock()
	defer func() {
		s.connsMu.Lock()
		delete(s.conns, c)
		s.connsMu.Unlock()
		c.Close()
	}()
	fr := newFrameReader(c, s.cfg.Inputs)
	var out []byte
	for {
		// Idle phase: wait (bounded) for the next frame to start.
		s.setReadDeadline(c, s.cfg.IdleTimeout)
		if _, err := fr.br.Peek(1); err != nil {
			return // EOF, idle timeout, or the drain poke
		}
		// Frame phase: the whole frame must land within ReadTimeout.
		arrived := s.setReadDeadline(c, s.cfg.ReadTimeout)
		x, err := fr.next()
		if err != nil {
			if errors.Is(err, errBadFrame) {
				// Dimension/validity rejection: answer and keep the
				// connection — the framing itself is still in sync.
				c.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
				out = appendErrorFrame(out[:0], StatusBadRequest, 0, err.Error())
				c.Write(out)
				continue
			}
			return // torn frame, oversized header, or mid-frame stall
		}
		start := time.Now()
		cls, err := s.submit(x)
		answered := time.Now()
		c.SetWriteDeadline(answered.Add(s.cfg.WriteTimeout))
		switch {
		case errors.Is(err, ErrQueueFull):
			out = appendErrorFrame(out[:0], StatusOverloaded, s.cfg.RetryAfter, err.Error())
		case errors.Is(err, ErrDraining):
			out = appendErrorFrame(out[:0], StatusDraining, s.cfg.RetryAfter, err.Error())
		case errors.Is(err, ErrDeadlineExceeded):
			out = appendErrorFrame(out[:0], StatusDeadlineExceeded, 0, err.Error())
		case err != nil:
			out = appendErrorFrame(out[:0], StatusInternal, 0, err.Error())
		default:
			out = appendOKFrame(out[:0], cls)
		}
		if _, werr := c.Write(out); werr != nil {
			return
		}
		if err == nil {
			end := time.Now()
			s.hBinary.RecordDuration(end.Sub(start))
			s.hDecode.RecordDuration(start.Sub(arrived))
			s.hEncodeWrite.RecordDuration(end.Sub(answered))
		}
		if errors.Is(err, ErrDraining) {
			return
		}
	}
}

// setReadDeadline arms a read deadline d from now and returns the now
// it armed from, then re-checks the draining flag: Shutdown's wake-up
// poke (SetReadDeadline(now) on every registered connection) could land
// between our deadline write and the blocking read, and must not be
// overwritten by a longer deadline — the double-check closes that race,
// because Shutdown sets draining before poking.
func (s *Server) setReadDeadline(c net.Conn, d time.Duration) time.Time {
	now := time.Now()
	c.SetReadDeadline(now.Add(d))
	if s.draining.Load() {
		c.SetReadDeadline(time.Now())
	}
	return now
}

// errBadFrame marks an in-sync frame the server rejects (the
// connection survives); any other read error tears the connection.
var errBadFrame = errors.New("bad frame")

// frameReader decodes one connection's request frames. Its reader
// holds one whole frame (4 + 8·inputs bytes, sized from Config.Inputs),
// so a valid payload decodes straight out of the read buffer into the
// reused vector x: steady-state frames allocate nothing.
type frameReader struct {
	br *bufio.Reader
	x  []float64
}

// newFrameReader returns the request decoder for a connection whose
// frames must carry inputs values.
func newFrameReader(r io.Reader, inputs int) *frameReader {
	return &frameReader{br: bufio.NewReaderSize(r, 4+8*inputs), x: make([]float64, inputs)}
}

// next reads one [count][floats] frame and validates it against the
// expected input dimension, returning the decoded vector (fr.x, valid
// until the next call). The max-frame guard runs first: a hostile
// length prefix above maxFrameFloats tears the connection, and a
// wrong-dimension (but sane) count streams its payload to discard —
// keeping the framing in sync for the in-sync rejection — so the
// server's memory is always bounded by its own input dimension, never
// by a byte the client chose. A frame with a non-finite value is
// consumed whole before it is rejected, for the same reason.
func (fr *frameReader) next() ([]float64, error) {
	head, err := take(fr.br, 4)
	if err != nil {
		return nil, err
	}
	count := binary.LittleEndian.Uint32(head)
	if count == 0 || count > maxFrameFloats {
		// Hard reject, connection torn: a length prefix this far out of
		// range means the stream is garbage (or hostile), and consuming
		// gigabytes to "stay in sync" would be the attack succeeding.
		return nil, fmt.Errorf("serve: frame count %d out of range", count)
	}
	if int(count) != len(fr.x) {
		// In-sync rejection: drain the advertised payload to discard
		// (no allocation proportional to the hostile count), then
		// answer StatusBadRequest and keep the connection.
		if _, err := io.CopyN(io.Discard, fr.br, 8*int64(count)); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("%w: input length %d, want %d", errBadFrame, count, len(fr.x))
	}
	payload, err := take(fr.br, 8*len(fr.x))
	if err != nil {
		return nil, err
	}
	for i := range fr.x {
		v := math.Float64frombits(binary.LittleEndian.Uint64(payload[8*i:]))
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%w: non-finite value at %d", errBadFrame, i)
		}
		fr.x[i] = v
	}
	return fr.x, nil
}

// take consumes the next n bytes of r and returns them in place: the
// slice aliases r's buffer and is valid until r's next read, so n must
// not exceed r's size. Like io.ReadFull it reports io.EOF only when no
// byte was left, and io.ErrUnexpectedEOF for a torn read.
func take(r *bufio.Reader, n int) ([]byte, error) {
	b, err := r.Peek(n)
	if err != nil {
		if err == io.EOF && len(b) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	r.Discard(n)
	return b, nil
}

// appendRequestFrame appends one input vector's request frame to dst.
func appendRequestFrame(dst []byte, x []float64) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(x)))
	for _, v := range x {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// appendOKFrame appends a StatusOK response frame to dst.
func appendOKFrame(dst []byte, cls Classification) []byte {
	var deg byte
	if cls.Degraded {
		deg = 1
	}
	dst = append(dst, StatusOK)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(cls.Class)))
	dst = append(dst, deg)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(cls.Scores)))
	for _, v := range cls.Scores {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// appendErrorFrame appends a non-OK response frame with the retry hint
// and message to dst.
func appendErrorFrame(dst []byte, status byte, retryAfter time.Duration, msg string) []byte {
	dst = append(dst, status)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(retryAfter.Milliseconds()))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(msg)))
	return append(dst, msg...)
}

// RemoteError is a non-OK binary response decoded by the client.
type RemoteError struct {
	// Status is the response frame's status byte.
	Status byte
	// RetryAfter is the server's suggested back-off (backpressure
	// statuses only).
	RetryAfter time.Duration
	// Msg is the server's message.
	Msg string
}

// Error implements error.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("serve: remote status %d: %s", e.Status, e.Msg)
}

// Overloaded reports whether the error is a backpressure rejection
// (queue full or draining) the client should back off from.
func (e *RemoteError) Overloaded() bool {
	return e.Status == StatusOverloaded || e.Status == StatusDraining
}

// Timeout reports whether the error is the server's typed deadline
// answer: the request was admitted but its deadline passed before the
// engine computed it. The read is idempotent, so retrying is safe.
func (e *RemoteError) Timeout() bool { return e.Status == StatusDeadlineExceeded }

// BinaryClient is a client for the binary hot path: one connection,
// synchronous request/response. Each request frame is encoded into a
// buffer kept on the client and sent with one Write. It is not safe for
// concurrent use; open one per goroutine (that is also what feeds the
// server's micro-batcher).
type BinaryClient struct {
	conn    net.Conn
	r       *bufio.Reader
	frame   []byte // the last request frame; its capacity is reused
	timeout time.Duration
}

// DialBinary connects to a serve listener and performs the magic
// handshake.
func DialBinary(addr string, timeout time.Duration) (*BinaryClient, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	if _, err := conn.Write(Magic[:]); err != nil {
		conn.Close()
		return nil, err
	}
	return &BinaryClient{conn: conn, r: bufio.NewReader(conn)}, nil
}

// SetTimeout bounds every subsequent Classify round-trip: the request
// write and the response read must both complete within d of the call
// starting. Zero (the default) leaves the round-trip unbounded.
func (c *BinaryClient) SetTimeout(d time.Duration) { c.timeout = d }

// Classify sends one input vector and decodes the response. A non-OK
// status is returned as *RemoteError; transport failures as-is.
func (c *BinaryClient) Classify(x []float64) (Classification, error) {
	if c.timeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.timeout))
	}
	c.frame = appendRequestFrame(c.frame[:0], x)
	if _, err := c.conn.Write(c.frame); err != nil {
		return Classification{}, err
	}
	return readResponseFrame(c.r)
}

// Close closes the connection.
func (c *BinaryClient) Close() error { return c.conn.Close() }

// readResponseFrame decodes one response frame. It allocates only what
// it returns: the score vector, or the error and its message.
func readResponseFrame(r *bufio.Reader) (Classification, error) {
	status, err := r.ReadByte()
	if err != nil {
		return Classification{}, err
	}
	if status != StatusOK {
		head, err := take(r, 8)
		if err != nil {
			return Classification{}, err
		}
		retryMs, msgLen := binary.LittleEndian.Uint32(head), binary.LittleEndian.Uint32(head[4:])
		if msgLen > 1<<16 {
			return Classification{}, errors.New("serve: oversized error message")
		}
		msg := make([]byte, msgLen)
		if _, err := io.ReadFull(r, msg); err != nil {
			return Classification{}, err
		}
		return Classification{}, &RemoteError{
			Status:     status,
			RetryAfter: time.Duration(retryMs) * time.Millisecond,
			Msg:        string(msg),
		}
	}
	head, err := take(r, 9) // [i32 class][u8 degraded][u32 n]
	if err != nil {
		return Classification{}, err
	}
	cls, deg, n := int32(binary.LittleEndian.Uint32(head)), head[4], binary.LittleEndian.Uint32(head[5:])
	if n > maxFrameFloats {
		return Classification{}, errors.New("serve: oversized score vector")
	}
	scores := make([]float64, n)
	for i := range scores {
		b, err := take(r, 8)
		if err != nil {
			return Classification{}, err
		}
		scores[i] = math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return Classification{Class: int(cls), Scores: scores, Degraded: deg == 1}, nil
}
