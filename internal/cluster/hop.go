package cluster

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cosmo/internal/wire"
)

// HTTPBackend is a Backend over a real cosmo-serve instance.
//
// Queries do not go through net/http's client. A routed lookup is 0.1 µs
// of KG work behind a ~30 µs hop, and most of that hop was the client's
// fixed cost: a request object, header maps and a read-loop and
// write-loop goroutine pair per connection, so every call crossed six
// goroutine handoffs. Do instead speaks plain HTTP/1.1 keep-alive
// itself, on the calling goroutine: it takes an exclusive connection
// from a small idle pool (dialling on demand), writes the GET, parses
// the status line, Content-Type and body, and parks the connection
// again. The only goroutine besides the caller is the node's own
// connection goroutine. The node side is the stock net/http server and
// the wire is what any HTTP/1.1 client would send.
//
// A reply reads as http.ReadResponse reads it (FuzzHopResponse), but
// for these divergences, each an error here: a status line other than
// "HTTP/1.x NNN[ reason]", a 1xx status, no Content-Length or chunked
// framing (no read-until-close), a line over the 4 KiB read buffer, a
// folded header line, over maxHopHeaderLines header or trailer lines,
// and a body over maxBody. cosmo-serve sends none of them.
type HTTPBackend struct {
	base   string
	client *http.Client // the once-a-second /readyz probe
	// maxBody bounds one proxied response body.
	maxBody int64

	addr    string // host:port the hop dials
	prefix  string // base's own path, prepended to every request target
	reqTail string // " HTTP/1.1\r\nHost: <host>\r\n\r\n"
	baseErr error  // base is not an http:// URL: every Do reports it

	mu     sync.Mutex
	idle   []*hopConn // parked keep-alive connections, most recently used last
	closed bool

	dials        atomic.Uint64
	staleRetries atomic.Uint64
}

const (
	// DefaultMaxProxyBody bounds one proxied response body (1 MiB matches
	// the serve side's own /batch request cap).
	DefaultMaxProxyBody = 1 << 20

	// maxIdleHopConns caps the connections one backend parks. Concurrent
	// calls beyond it still dial; their connections are closed after use.
	maxIdleHopConns = 16

	// maxHopHeaderLines bounds the header and trailer lines of one
	// response; each line is bounded by the connection's read buffer.
	maxHopHeaderLines = 128
)

// NewHTTPBackend builds a Backend that queries the cosmo-serve at base
// (e.g. "http://10.0.0.3:8080"; the hop is plain HTTP, so any other
// scheme makes every Do fail). client serves the /readyz probe and may
// be nil for a default with no global timeout — query attempts are
// bounded per call by the router's attempt context, whose deadline Do
// arms on the connection.
func NewHTTPBackend(base string, client *http.Client) *HTTPBackend {
	if client == nil {
		client = &http.Client{}
	}
	b := &HTTPBackend{
		base:    strings.TrimRight(base, "/"),
		client:  client,
		maxBody: DefaultMaxProxyBody,
	}
	u, err := url.Parse(b.base)
	switch {
	case err != nil:
		b.baseErr = fmt.Errorf("cluster: node URL %q: %w", base, err)
	case u.Scheme != "http" || u.Host == "":
		b.baseErr = fmt.Errorf("cluster: node URL %q: want http://host[:port]", base)
	default:
		b.addr = u.Host
		if u.Port() == "" {
			b.addr = net.JoinHostPort(u.Hostname(), "80")
		}
		b.prefix = u.EscapedPath()
		b.reqTail = " HTTP/1.1\r\nHost: " + u.Host + "\r\n\r\n"
	}
	return b
}

// hopConn is one keep-alive connection to a node. Whoever took it from
// the pool (or dialled it) owns it until it is parked or closed.
type hopConn struct {
	c  net.Conn
	br *bufio.Reader
	// abort is interrupt bound once, so arming it per call allocates no
	// method value.
	abort func()
	// contentType is the last Content-Type this connection answered
	// with; a node repeats the same few, so the header costs no
	// allocation after the first.
	contentType string
	// answered is set once a byte of the current response arrived.
	answered bool
}

// interrupt unblocks the owner's parked read or write. It runs when the
// call ends early, on the goroutine that ended it (the hedge winner, the
// router's caller-cancel callback, the attempt's deadline timer) or, for
// a ctx that is not a router attempt, on context.AfterFunc's; the owner
// still closes the connection.
func (hc *hopConn) interrupt() {
	_ = hc.c.SetDeadline(time.Unix(1, 0)) //cosmo:lint-ignore dropped-error it fails only on a connection the owner already closed
}

func (hc *hopConn) close() {
	_ = hc.c.Close() //cosmo:lint-ignore dropped-error nothing to do about a failed close of a connection being discarded
}

// Do proxies one GET to the node. Cancelling ctx (or its deadline)
// interrupts a parked read at once. A pooled connection the node closed
// while it sat idle — a restarted node, an idle timeout — shows as a
// failure before the first response byte; that call is repeated once on
// a fresh connection, so a stale pool never reads as a node failure.
func (b *HTTPBackend) Do(ctx context.Context, path, rawQuery string) (Result, error) {
	if b.baseErr != nil {
		return Result{}, b.baseErr
	}
	if !validTarget(path) || !validTarget(rawQuery) {
		return Result{}, fmt.Errorf("cluster: request target %q?%q has a control or space byte", path, rawQuery)
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	hc := b.takeIdle()
	reused := hc != nil
	if !reused {
		var err error
		if hc, err = b.dial(ctx); err != nil {
			return Result{}, err
		}
	}
	res, err := b.exchange(ctx, hc, path, rawQuery)
	if err != nil && reused && !hc.answered && ctx.Err() == nil {
		b.staleRetries.Add(1)
		if hc, err = b.dial(ctx); err != nil {
			return Result{}, err
		}
		res, err = b.exchange(ctx, hc, path, rawQuery)
	}
	return res, err
}

// validTarget reports whether s can go on the request line verbatim: a
// space or control byte would end the target early or start a header.
func validTarget(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] <= 0x20 || s[i] == 0x7f {
			return false
		}
	}
	return true
}

// dial opens a connection for a call that is about to use it: a
// connection that never carried a request is never parked (a server
// shutting down waits seconds before it treats one as idle).
func (b *HTTPBackend) dial(ctx context.Context) (*hopConn, error) {
	var d net.Dialer
	c, err := d.DialContext(ctx, "tcp", b.addr)
	if err != nil {
		return nil, err
	}
	b.dials.Add(1)
	hc := &hopConn{c: c, br: bufio.NewReader(c)}
	hc.abort = hc.interrupt
	return hc, nil
}

func (b *HTTPBackend) takeIdle() *hopConn {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := len(b.idle)
	if n == 0 {
		return nil
	}
	hc := b.idle[n-1]
	b.idle[n-1] = nil
	b.idle = b.idle[:n-1]
	return hc
}

func (b *HTTPBackend) park(hc *hopConn) {
	b.mu.Lock()
	if !b.closed && len(b.idle) < maxIdleHopConns {
		b.idle = append(b.idle, hc)
		hc = nil
	}
	b.mu.Unlock()
	if hc != nil {
		hc.close()
	}
}

// Close closes the idle connections and stops parking new ones; calls
// in flight finish and close their own.
func (b *HTTPBackend) Close() {
	b.mu.Lock()
	idle := b.idle
	b.idle, b.closed = nil, true
	b.mu.Unlock()
	for _, hc := range idle {
		hc.close()
	}
}

// HopStats counts one backend's connection use.
type HopStats struct {
	Idle         int    // connections parked now
	Dials        uint64 // connections opened
	StaleRetries uint64 // calls repeated because a pooled connection had died
}

// HopStats reports the backend's connection counters.
func (b *HTTPBackend) HopStats() HopStats {
	b.mu.Lock()
	idle := len(b.idle)
	b.mu.Unlock()
	return HopStats{Idle: idle, Dials: b.dials.Load(), StaleRetries: b.staleRetries.Load()}
}

// exchange runs one request and response on hc, then parks hc if the
// exchange left it clean and closes it otherwise. ctx's deadline is
// armed on the connection, once per exchange (no deadline clears the
// last exchange's), so only an early end — a hedge won elsewhere, the
// caller left — needs the interrupt: a router attempt takes it
// directly, any other ctx through context.AfterFunc.
func (b *HTTPBackend) exchange(ctx context.Context, hc *hopConn, path, rawQuery string) (Result, error) {
	deadline, _ := ctx.Deadline()
	_ = hc.c.SetDeadline(deadline) //cosmo:lint-ignore dropped-error it fails only on a closed connection, whose write then fails
	a, routed := ctx.(*attempt)
	var stop func() bool
	switch {
	case routed:
		a.armAbort(hc.abort)
	case ctx.Done() != nil:
		stop = context.AfterFunc(ctx, hc.abort)
	}
	res, reusable, err := hc.roundTrip(b, path, rawQuery)
	// The past deadline an interrupt sets is harmless on a parked
	// connection, since the next exchange re-arms it, unless the
	// interrupt can still run: context.AfterFunc's can, after stop
	// reports false; the attempt's runs under its lock, so not after
	// disarmAbort.
	interrupted := false
	switch {
	case routed:
		a.disarmAbort()
	case stop != nil:
		interrupted = !stop()
	}
	if interrupted || !reusable || err != nil {
		hc.close()
	} else {
		b.park(hc)
	}
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			err = cerr
		}
		return Result{}, err
	}
	return res, nil
}

// roundTrip writes the request and reads the response. reusable reports
// whether the connection is positioned at the start of a next response.
func (hc *hopConn) roundTrip(b *HTTPBackend, path, rawQuery string) (res Result, reusable bool, err error) {
	buf := wire.Get()
	defer wire.Put(buf)
	buf.B = append(buf.B, "GET "...)
	buf.B = append(buf.B, b.prefix...)
	buf.B = append(buf.B, path...)
	if len(b.prefix)+len(path) == 0 {
		buf.B = append(buf.B, '/')
	}
	if rawQuery != "" {
		buf.B = append(buf.B, '?')
		buf.B = append(buf.B, rawQuery...)
	}
	buf.B = append(buf.B, b.reqTail...)

	hc.answered = false
	if _, err := hc.c.Write(buf.B); err != nil {
		return Result{}, false, err
	}
	if _, err := hc.br.Peek(1); err != nil {
		return Result{}, false, err
	}
	hc.answered = true
	return hc.readResponse(buf, b.maxBody)
}

var (
	errHopMalformed = errors.New("cluster: malformed HTTP response from node")
	errHopTooLarge  = errors.New("cluster: node response body exceeds the proxy limit")
)

func malformed(what string, line []byte) error {
	return fmt.Errorf("%w: %s %q", errHopMalformed, what, line)
}

// readLine returns the next CRLF-terminated line without its ending.
// The slice is valid until the next read.
func (hc *hopConn) readLine() ([]byte, error) {
	line, err := hc.br.ReadSlice('\n')
	if err != nil {
		switch {
		case errors.Is(err, bufio.ErrBufferFull):
			err = fmt.Errorf("%w: line over %d bytes", errHopMalformed, hc.br.Size())
		case errors.Is(err, io.EOF):
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return bytes.TrimSuffix(line[:len(line)-1], []byte("\r")), nil
}

// readResponse parses one response. scratch is a pooled buffer free for
// reuse (the request has been written).
func (hc *hopConn) readResponse(scratch *wire.Buffer, maxBody int64) (res Result, reusable bool, err error) {
	line, err := hc.readLine()
	if err != nil {
		return Result{}, false, err
	}
	// "HTTP/1.x NNN" and then a space and the reason, or nothing.
	if len(line) < 12 || string(line[:7]) != "HTTP/1." || line[7] < '0' || line[7] > '9' || line[8] != ' ' || (len(line) > 12 && line[12] != ' ') {
		return Result{}, false, malformed("status line", line)
	}
	for _, d := range line[9:12] {
		if d < '0' || d > '9' {
			return Result{}, false, malformed("status line", line)
		}
		res.Status = res.Status*10 + int(d-'0')
	}
	reusable, http10 := line[7] == '1', line[7] == '0'

	contentLength, lengthDigits, chunked, typed := int64(-1), 0, false, false
	for n := 0; ; n++ {
		if line, err = hc.readLine(); err != nil {
			return Result{}, false, err
		}
		if len(line) == 0 {
			break
		}
		name, value, ok := bytes.Cut(line, []byte(":"))
		value = bytes.Trim(value, " \t\r")
		if !ok || n == maxHopHeaderLines || !validField(name, value) {
			return Result{}, false, malformed("header", line)
		}
		switch {
		case bytes.EqualFold(name, []byte("content-length")):
			// A repeat must be the same digits: same value, same length.
			cl, err := strconv.ParseUint(string(value), 10, 63)
			if err != nil || (contentLength >= 0 && (int64(cl) != contentLength || len(value) != lengthDigits)) {
				return Result{}, false, malformed("header", line)
			}
			contentLength, lengthDigits = int64(cl), len(value)
		case bytes.EqualFold(name, []byte("transfer-encoding")) && !http10:
			if chunked || !bytes.EqualFold(value, []byte("chunked")) {
				return Result{}, false, malformed("header", line)
			}
			chunked = true
		case bytes.EqualFold(name, []byte("content-type")) && !typed: // the first counts
			typed = true
			if string(value) != hc.contentType {
				hc.contentType = string(value)
			}
			res.ContentType = hc.contentType
		case bytes.EqualFold(name, []byte("connection")):
			if bytes.EqualFold(value, []byte("close")) {
				reusable = false
			}
		}
	}

	switch {
	case res.Status < 200:
		// A node never sends 1xx to a bare GET; what follows is unknown.
		return Result{}, false, fmt.Errorf("%w: status %d", errHopMalformed, res.Status)
	case res.Status == http.StatusNoContent || res.Status == http.StatusNotModified:
		res.Body = []byte{}
	case chunked:
		res.Body, err = hc.readChunked(scratch, maxBody)
	case contentLength > maxBody:
		err = errHopTooLarge
	case contentLength >= 0:
		res.Body = make([]byte, contentLength)
		_, err = io.ReadFull(hc.br, res.Body)
	default:
		// Read-until-close framing: cosmo-serve speaks HTTP/1.1 and never
		// uses it.
		err = fmt.Errorf("%w: neither Content-Length nor chunked", errHopMalformed)
	}
	if err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return Result{}, false, err
	}
	return res, reusable && hc.br.Buffered() == 0, nil
}

// readChunked decodes a chunked body through scratch into one slice of
// exactly the body's size. It stops, with an error, at the chunk that
// would take the body past maxBody.
func (hc *hopConn) readChunked(scratch *wire.Buffer, maxBody int64) ([]byte, error) {
	buf := scratch.B[:0]
	defer func() { scratch.B = buf }()
	for {
		line, err := hc.readLine()
		if err != nil {
			return nil, err
		}
		if ext := bytes.IndexByte(line, ';'); ext >= 0 {
			line = line[:ext]
		}
		usize, err := strconv.ParseUint(string(bytes.TrimSpace(line)), 16, 63)
		if err != nil {
			return nil, malformed("chunk size", line)
		}
		size := int64(usize)
		if size == 0 {
			break
		}
		if size > maxBody-int64(len(buf)) {
			return nil, errHopTooLarge
		}
		n := len(buf)
		buf = slices.Grow(buf, int(size)+2)[:n+int(size)+2]
		if _, err := io.ReadFull(hc.br, buf[n:]); err != nil {
			return nil, err
		}
		if string(buf[len(buf)-2:]) != "\r\n" {
			return nil, fmt.Errorf("%w: chunk not followed by CRLF", errHopMalformed)
		}
		buf = buf[:len(buf)-2]
	}
	for n := 0; ; n++ { // trailers
		line, err := hc.readLine()
		if err != nil {
			return nil, err
		}
		if len(line) == 0 {
			return bytes.Clone(buf), nil
		}
		name, value, ok := bytes.Cut(line, []byte(":"))
		if !ok || n == maxHopHeaderLines || !validField(name, bytes.Trim(value, " \t\r")) {
			return nil, malformed("trailer", line)
		}
	}
}

// validField reports whether net/http's header reader accepts a header
// or trailer line: a token name (inner spaces allowed) and no control
// byte but HTAB in the value.
func validField(name, value []byte) bool {
	for _, c := range name {
		if !(c == ' ' || 'a' <= c|0x20 && c|0x20 <= 'z' || '0' <= c && c <= '9' || strings.IndexByte("!#$%&'*+-.^_`|~", c) >= 0) {
			return false
		}
	}
	for _, c := range value {
		if c < ' ' && c != '\t' || c == 0x7f {
			return false
		}
	}
	return len(name) > 0 && name[0] != ' '
}

// Check probes the node's /readyz. A 200 is ready; a non-200 whose body
// says "draining" is a graceful drain (the cosmo-serve -drain-grace
// protocol); anything else — including transport failure — is down. A
// base every Do refuses (not http://) is down without a probe, so the
// router never counts a node it cannot reach.
func (b *HTTPBackend) Check(ctx context.Context) Health {
	if b.baseErr != nil {
		return HealthDown
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.base+"/readyz", nil)
	if err != nil {
		return HealthDown
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return HealthDown
	}
	defer resp.Body.Close() //cosmo:lint-ignore dropped-error best-effort close on a readiness probe
	body, err := io.ReadAll(io.LimitReader(resp.Body, 512))
	if err != nil {
		return HealthDown
	}
	if resp.StatusCode == http.StatusOK {
		return HealthReady
	}
	if strings.Contains(string(body), "draining") {
		return HealthDraining
	}
	return HealthDown
}
