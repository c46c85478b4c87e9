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
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cosmo/internal/catalog"
	"cosmo/internal/kg"
	"cosmo/internal/know"
	"cosmo/internal/relations"
	"cosmo/internal/serving"
)

// hopSnapshot freezes a graph whose /related answer for p:HEAD is a
// few KiB: 80 products share its four intentions.
func hopSnapshot(t *testing.T) *kg.Snapshot {
	t.Helper()
	g := kg.New()
	add := func(head, tail string, typ float64) {
		t.Helper()
		if err := g.AddEdge(kg.Edge{
			Head: head, Relation: relations.UsedForEve, Tail: tail,
			Behavior: know.SearchBuy, Domain: catalog.Category("outdoor"),
			PlausibleScore: 0.9, TypicalScore: typ, Support: 3,
		}); err != nil {
			t.Fatal(err)
		}
	}
	intentions := []string{"i:camping", "i:hiking", "i:shade", "i:cooking outdoors"}
	for _, id := range intentions {
		g.AddNode(kg.Node{ID: id, Type: kg.NodeIntention, Label: strings.TrimPrefix(id, "i:")})
	}
	g.AddNode(kg.Node{ID: "p:HEAD", Type: kg.NodeProduct, Label: "dome tent"})
	for i, id := range intentions {
		add("p:HEAD", id, 0.9-0.1*float64(i))
	}
	for p := 0; p < 80; p++ {
		id := fmt.Sprintf("p:P%05d", p)
		g.AddNode(kg.Node{ID: id, Type: kg.NodeProduct, Label: fmt.Sprintf("product %d", p)})
		for i, in := range intentions {
			add(id, in, 0.3+0.001*float64(p)+0.01*float64(i))
		}
	}
	return g.Freeze()
}

// hopDeployment is a ready node with "camping" cached and, when withKG,
// the KG and similarity index installed.
func hopDeployment(t *testing.T, withKG bool) *serving.Deployment {
	t.Helper()
	dep := newLocalDeployment(t, "camping")
	if withKG {
		dep.Install(serving.NewGeneration(hopSnapshot(t), kg.SnapshotStamp{}))
	}
	return dep
}

// stdGet is the reference: the same GET through net/http's client.
func stdGet(t *testing.T, url string) Result {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return Result{Status: resp.StatusCode, ContentType: resp.Header.Get("Content-Type"), Body: body}
}

// TestHTTPBackendMatchesNetHTTP compares the hop with net/http's client
// on status, content type and body, byte for byte, against the real
// node handler on a loopback listener.
func TestHTTPBackendMatchesNetHTTP(t *testing.T) {
	withKG := httptest.NewServer(serving.NewHTTPHandler(hopDeployment(t, true)))
	defer withKG.Close()
	noKG := httptest.NewServer(serving.NewHTTPHandler(hopDeployment(t, false)))
	defer noKG.Close()

	cases := []struct {
		name, path, rawQuery string
		srv                  *httptest.Server
		status               int
		chunked              bool
	}{
		{"intent cached", "/intent", "q=camping", withKG, 200, false},
		{"intent queued", "/intent", "q=never+seen+before", withKG, 202, false},
		{"intentions", "/intentions", "id=p%3AHEAD&k=10", withKG, 200, false},
		{"related over 2 KiB", "/related", "id=p:HEAD&k=80", withKG, 200, true},
		{"similar", "/similar", "q=camping+outdoors&k=5", withKG, 200, false},
		{"kg", "/kg", "", withKG, 200, false},
		{"unknown id", "/intentions", "id=p:NOSUCH", withKG, 200, false},
		{"missing parameter", "/related", "k=3", withKG, 400, false},
		{"kg not loaded", "/intentions", "id=p:HEAD", noKG, 503, false},
		{"similarity not loaded", "/similar", "q=camping", noKG, 503, false},
	}
	backends := map[*httptest.Server]*HTTPBackend{
		withKG: NewHTTPBackend(withKG.URL, nil),
		noKG:   NewHTTPBackend(noKG.URL+"/", nil),
	}
	for _, b := range backends {
		defer b.Close()
	}
	// Twice: the second pass runs on reused connections, after every
	// kind of response.
	for pass := 0; pass < 2; pass++ {
		for _, tc := range cases {
			url := tc.srv.URL + tc.path
			if tc.rawQuery != "" {
				url += "?" + tc.rawQuery
			}
			want := stdGet(t, url)
			if want.Status != tc.status {
				t.Fatalf("%s: reference status %d, the case expects %d", tc.name, want.Status, tc.status)
			}
			if tc.chunked && len(want.Body) <= 2048 {
				t.Fatalf("%s: reference body is %d bytes, too small for net/http to chunk", tc.name, len(want.Body))
			}
			got, err := backends[tc.srv].Do(context.Background(), tc.path, tc.rawQuery)
			if err != nil {
				t.Fatalf("%s (pass %d): Do: %v", tc.name, pass, err)
			}
			if got.Status != want.Status || got.ContentType != want.ContentType || !bytes.Equal(got.Body, want.Body) {
				t.Fatalf("%s (pass %d): hop answered %d %q %d bytes, net/http %d %q %d bytes\nhop:  %q\nwant: %q",
					tc.name, pass, got.Status, got.ContentType, len(got.Body),
					want.Status, want.ContentType, len(want.Body), got.Body, want.Body)
			}
		}
	}
	for srv, b := range backends {
		if hs := b.HopStats(); hs.Dials != 1 || hs.Idle != 1 || hs.StaleRetries != 0 {
			t.Errorf("%s: hop stats %+v after sequential calls, want one dial, one idle connection", srv.URL, hs)
		}
	}
}

// TestHTTPBackendRefusesUnsafeTarget: a space or control byte in the
// target is refused before anything is dialled or written.
func TestHTTPBackendRefusesUnsafeTarget(t *testing.T) {
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { served.Add(1) }))
	defer srv.Close()
	b := NewHTTPBackend(srv.URL, nil)
	defer b.Close()
	for _, tc := range [][2]string{
		{"/intent", "q=a b"},
		{"/intent", "q=a\r\nX-Injected: 1"},
		{"/intent HTTP/1.1\r\nHost: evil\r\n\r\nGET /x", ""},
		{"/intent", "q=\x7f"},
		{"/in\ttent", ""},
		{"/intent", "q=\x00"},
	} {
		if _, err := b.Do(context.Background(), tc[0], tc[1]); err == nil {
			t.Errorf("Do(%q, %q) succeeded, want a refusal", tc[0], tc[1])
		}
	}
	if hs := b.HopStats(); hs.Dials != 0 || served.Load() != 0 {
		t.Fatalf("refused targets still reached the node: %d dials, %d requests served", hs.Dials, served.Load())
	}
	for _, base := range []string{"https://127.0.0.1:1", "127.0.0.1:8080", "http://", "http://bad host"} {
		if _, err := NewHTTPBackend(base, nil).Do(context.Background(), "/kg", ""); err == nil {
			t.Errorf("Do over base %q succeeded, want an error", base)
		}
	}
}

// bigBodyServer answers every GET with size bytes of 'x', framed by
// Content-Length or (flushing first, so net/http cannot count) chunked.
func bigBodyServer(size int, chunked bool) *httptest.Server {
	body := bytes.Repeat([]byte("x"), size)
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		if chunked {
			w.(http.Flusher).Flush()
		} else {
			w.Header().Set("Content-Length", fmt.Sprint(len(body)))
		}
		_, _ = w.Write(body)
	}))
}

// TestHTTPBackendBodyLimit: a body of exactly maxBody passes whole; one
// byte more is an error — never a truncated 200 — under both framings,
// and through a router it is a node failure that fails over.
func TestHTTPBackendBodyLimit(t *testing.T) {
	for _, chunked := range []bool{false, true} {
		name := "content-length"
		if chunked {
			name = "chunked"
		}
		t.Run(name, func(t *testing.T) {
			fits := bigBodyServer(DefaultMaxProxyBody, chunked)
			defer fits.Close()
			over := bigBodyServer(DefaultMaxProxyBody+1, chunked)
			defer over.Close()

			bFits := NewHTTPBackend(fits.URL, nil)
			defer bFits.Close()
			res, err := bFits.Do(context.Background(), "/kg", "")
			if err != nil || res.Status != 200 || len(res.Body) != DefaultMaxProxyBody {
				t.Fatalf("body of exactly the limit: status %d, %d bytes, err %v; want it whole", res.Status, len(res.Body), err)
			}

			bOver := NewHTTPBackend(over.URL, nil)
			defer bOver.Close()
			res, err = bOver.Do(context.Background(), "/kg", "")
			if !errors.Is(err, errHopTooLarge) {
				t.Fatalf("body one byte over the limit: status %d, %d bytes, err %v; want errHopTooLarge", res.Status, len(res.Body), err)
			}
			if hs := bOver.HopStats(); hs.Idle != 0 {
				t.Fatalf("a connection with an unread body was parked: %+v", hs)
			}

			r, err := New([]NodeSpec{{Name: "over", Backend: bOver}, {Name: "fits", Backend: bFits}},
				Config{Replication: 2, HedgeMax: time.Hour, Breaker: serving.BreakerConfig{Threshold: 1000}})
			if err != nil {
				t.Fatal(err)
			}
			key := keyWithPrimary(t, r, "over")
			res, err = r.Do(context.Background(), Request{Key: key, Path: "/kg"})
			if err != nil || len(res.Body) != DefaultMaxProxyBody {
				t.Fatalf("routed: %d bytes, err %v; want failover to the node whose answer fits", len(res.Body), err)
			}
			for _, n := range r.Stats().Nodes {
				if n.Name == "over" && n.Failures != 1 {
					t.Fatalf("oversized answer counted %d node failures, want 1", n.Failures)
				}
			}
		})
	}
}

// TestHTTPBackendStaleKeepAliveRetry: the node drops its idle
// connections between calls (a restart, an idle timeout). The next call
// finds its pooled connection dead before any response byte, repeats
// once on a fresh dial, and the router never hears of it.
func TestHTTPBackendStaleKeepAliveRetry(t *testing.T) {
	srv := httptest.NewServer(serving.NewHTTPHandler(hopDeployment(t, false)))
	defer srv.Close()
	b := NewHTTPBackend(srv.URL, nil)
	defer b.Close()
	r, err := New([]NodeSpec{{Name: "n0", Backend: b}}, Config{Breaker: serving.BreakerConfig{Threshold: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		res, err := r.Do(context.Background(), Request{Key: "camping", Path: "/intent", RawQuery: "q=camping"})
		if err != nil || res.Status != 200 {
			t.Fatalf("call %d after the node dropped its idle connections: status %d, err %v", i, res.Status, err)
		}
		if hs := b.HopStats(); hs.Idle != 1 {
			t.Fatalf("call %d: %+v, want the connection parked again", i, hs)
		}
		srv.CloseClientConnections()
	}
	s := r.Stats()
	n0 := s.Nodes[0]
	if n0.Hop.StaleRetries != 4 || n0.Hop.Dials != 5 {
		t.Fatalf("hop stats %+v, want 4 stale retries over 5 dials", n0.Hop)
	}
	if n0.Failures != 0 || n0.BreakerOpens != 0 || s.Errors != 0 {
		t.Fatalf("stale connections voted: failures=%d breaker opens=%d errors=%d, want none", n0.Failures, n0.BreakerOpens, s.Errors)
	}
	var metrics bytes.Buffer
	r.WriteMetrics(&metrics)
	for _, want := range []string{
		`cosmo_node_conns_idle{node="n0"} 1`,
		`cosmo_node_conn_dials_total{node="n0"} 5`,
		`cosmo_node_conn_stale_retries_total{node="n0"} 4`,
	} {
		if !strings.Contains(metrics.String(), want) {
			t.Errorf("metrics lack %q", want)
		}
	}
}

// parkedServer's handler signals each arrival and holds the request
// until released.
type parkedServer struct {
	*httptest.Server
	arrived chan struct{}
	release chan struct{}
}

func newParkedServer() *parkedServer {
	p := &parkedServer{arrived: make(chan struct{}, 16), release: make(chan struct{})}
	p.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		p.arrived <- struct{}{}
		<-p.release
	}))
	return p
}

func (p *parkedServer) Close() {
	close(p.release)
	p.Server.Close()
}

// TestHTTPBackendCancelMidRead: cancelling the caller's context while
// the call is parked in its read returns ctx.Err() at once, the
// connection is discarded, and the node's breaker is not voted.
func TestHTTPBackendCancelMidRead(t *testing.T) {
	srv := newParkedServer()
	defer srv.Close()
	b := NewHTTPBackend(srv.URL, nil)
	defer b.Close()
	r, err := New([]NodeSpec{{Name: "n0", Backend: b}}, Config{Breaker: serving.BreakerConfig{Threshold: 1}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-srv.arrived
		cancel()
	}()
	start := time.Now()
	_, err = r.Do(ctx, Request{Key: "k", Path: "/intent", RawQuery: "q=k"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("cancel took %v to unblock the parked read", d)
	}
	n0 := r.Stats().Nodes[0]
	if n0.Failures != 0 || n0.BreakerState != serving.BreakerClosed || n0.Hop.Idle != 0 {
		t.Fatalf("after cancel: failures=%d breaker=%v idle=%d, want an abandoned attempt and no parked connection",
			n0.Failures, n0.BreakerState, n0.Hop.Idle)
	}
}

// TestHTTPBackendAttemptTimeout: a node that never answers runs out the
// attempt's own deadline, and that is a failure vote.
func TestHTTPBackendAttemptTimeout(t *testing.T) {
	srv := newParkedServer()
	defer srv.Close()
	b := NewHTTPBackend(srv.URL, nil)
	defer b.Close()
	r, err := New([]NodeSpec{{Name: "n0", Backend: b}}, Config{AttemptTimeout: 30 * time.Millisecond, Breaker: serving.BreakerConfig{Threshold: 1}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Do(context.Background(), Request{Key: "k", Path: "/intent", RawQuery: "q=k"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the attempt's deadline", err)
	}
	n0 := r.Stats().Nodes[0]
	if n0.Failures != 1 || n0.BreakerState != serving.BreakerOpen {
		t.Fatalf("after a timed-out attempt: failures=%d breaker=%v, want a failure vote that opens the breaker", n0.Failures, n0.BreakerState)
	}
}

// rawServer accepts loopback connections and hands each request's
// connection to respond after consuming the request head.
func rawServer(t *testing.T, respond func(c net.Conn)) (base string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var conns sync.WaitGroup
	t.Cleanup(func() {
		ln.Close()
		conns.Wait()
	})
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			conns.Add(1)
			go func() {
				defer conns.Done()
				defer c.Close()
				br := bufio.NewReader(c)
				for {
					line, err := br.ReadString('\n')
					if err != nil {
						return
					}
					if line == "\r\n" {
						respond(c)
						return
					}
				}
			}()
		}
	}()
	return "http://" + ln.Addr().String()
}

// TestHTTPBackendBrokenResponses: a node that closes mid-body, mid-chunk
// or answers garbage is an error, and its connection is not reused.
func TestHTTPBackendBrokenResponses(t *testing.T) {
	for name, response := range map[string]string{
		"closes mid-body":    "HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\nonly this much",
		"closes mid-chunk":   "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n40\r\nshort",
		"closes mid-header":  "HTTP/1.1 200 OK\r\nContent-Le",
		"bad status line":    "HTTP/2 200\r\n\r\n",
		"bad chunk size":     "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n",
		"no framing":         "HTTP/1.1 200 OK\r\n\r\nbody until close",
		"two content-length": "HTTP/1.1 200 OK\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\nab",
		"informational":      "HTTP/1.1 100 Continue\r\n\r\n",
		// Replies the hop once accepted and net/http refuses.
		"version not a digit":     "HTTP/1.A 200 OK\r\nContent-Length: 0\r\n\r\n",
		"length spelled two ways": "HTTP/1.1 200 OK\r\nContent-Length: 1\r\nContent-Length: 01\r\n\r\na",
		"two transfer-encodings":  "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
		"http/1.0 chunked":        "HTTP/1.0 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
		"header name not a token": "HTTP/1.1 200 OK\r\nX(y): 1\r\nContent-Length: 0\r\n\r\n",
		"control byte in a value": "HTTP/1.1 200 OK\r\nX-Note: a\x01b\r\nContent-Length: 0\r\n\r\n",
		"trailer without a colon": "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0\r\nnot a trailer\r\n\r\n",
		"chunk ends in a bare LF": "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nok\n0\r\n\r\n",
	} {
		t.Run(name, func(t *testing.T) {
			b := NewHTTPBackend(rawServer(t, func(c net.Conn) { _, _ = io.WriteString(c, response) }), nil)
			defer b.Close()
			res, err := b.Do(context.Background(), "/kg", "")
			if err == nil {
				t.Fatalf("Do answered %d %q, want an error", res.Status, res.Body)
			}
			if errors.Is(err, io.EOF) {
				t.Fatalf("err = %v: a cut-off response must not read as a clean end", err)
			}
			if hs := b.HopStats(); hs.Idle != 0 || hs.StaleRetries != 0 {
				t.Fatalf("hop stats %+v, want the broken connection discarded and no retry (bytes had arrived)", hs)
			}
		})
	}
}

// TestHTTPBackendFramingVariants: responses a non-Go node or proxy may
// send — chunk extensions and trailers, header case and padding,
// HTTP/1.0 and Connection: close (answered, but not reused).
func TestHTTPBackendFramingVariants(t *testing.T) {
	for name, tc := range map[string]struct {
		response string
		body     string
		reusable bool
	}{
		"chunk extensions and trailers": {"HTTP/1.1 200 OK\r\ntransfer-ENCODING:  Chunked \r\nContent-Type:text/plain\r\n\r\n5;ext=1\r\nhello\r\n6\r\n world\r\n0\r\nX-Trailer: 1\r\n\r\n", "hello world", true},
		"connection close":              {"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\nContent-Type: text/plain\r\n\r\nok", "ok", false},
		"http/1.0":                      {"HTTP/1.0 200 OK\r\nContent-Length: 2\r\nContent-Type: text/plain\r\n\r\nok", "ok", false},
		"no reason phrase":              {"HTTP/1.1 200\r\nContent-Length: 2\r\nContent-Type: text/plain\r\n\r\nok", "ok", true},
		"empty body":                    {"HTTP/1.1 200 OK\r\nContent-Length: 0\r\nContent-Type: text/plain\r\n\r\n", "", true},
		"two content types":             {"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Type: text/html\r\nContent-Length: 2\r\n\r\nok", "ok", true},
	} {
		t.Run(name, func(t *testing.T) {
			hold := make(chan struct{})
			defer close(hold)
			b := NewHTTPBackend(rawServer(t, func(c net.Conn) {
				_, _ = io.WriteString(c, tc.response)
				<-hold // keep the connection open: reuse is the hop's decision
			}), nil)
			defer b.Close()
			res, err := b.Do(context.Background(), "/kg", "")
			if err != nil {
				t.Fatal(err)
			}
			if res.Status != 200 || res.ContentType != "text/plain" || string(res.Body) != tc.body {
				t.Fatalf("got %d %q %q, want 200 text/plain %q", res.Status, res.ContentType, res.Body, tc.body)
			}
			if idle := b.HopStats().Idle; (idle == 1) != tc.reusable {
				t.Fatalf("idle connections = %d, reusable = %v", idle, tc.reusable)
			}
		})
	}
}

// TestHTTPBackendConcurrent hammers one backend from many goroutines
// (run under -race): connections are exclusive, so every caller must
// get its own answer.
func TestHTTPBackendConcurrent(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		n := len(r.URL.RawQuery)
		_, _ = io.WriteString(w, strings.Repeat(r.URL.RawQuery+"\n", 1+3000/n*(n%2))) // odd lengths answer chunked
	}))
	defer srv.Close()
	b := NewHTTPBackend(srv.URL, nil)
	const workers, calls = 2 * maxIdleHopConns, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				q := fmt.Sprintf("q=worker-%d-call-%d", w, i)
				res, err := b.Do(context.Background(), "/echo", q)
				if err != nil {
					t.Errorf("%s: %v", q, err)
					return
				}
				if res.Status != 200 || !strings.HasPrefix(string(res.Body), q+"\n") || len(res.Body)%(len(q)+1) != 0 {
					t.Errorf("%s: got %d with %d bytes starting %.40q: another call's answer", q, res.Status, len(res.Body), res.Body)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if hs := b.HopStats(); hs.Idle > maxIdleHopConns {
		t.Fatalf("%d idle connections, cap is %d", hs.Idle, maxIdleHopConns)
	}
	b.Close()
	if hs := b.HopStats(); hs.Idle != 0 {
		t.Fatalf("%d idle connections after Close", hs.Idle)
	}
	if res, err := b.Do(context.Background(), "/echo", "q=after-close"); err != nil || res.Status != 200 {
		t.Fatalf("Do after Close: %d, %v; want it to dial and answer", res.Status, err)
	}
	if hs := b.HopStats(); hs.Idle != 0 {
		t.Fatalf("a closed backend parked a connection: %+v", hs)
	}
}

// gateServer holds every request until open is closed, signalling each
// arrival, and answers "ok" after.
type gateServer struct {
	*httptest.Server
	arrived chan struct{}
	open    chan struct{}
}

func newGateServer(t *testing.T) *gateServer {
	t.Helper()
	g := &gateServer{arrived: make(chan struct{}, 16), open: make(chan struct{})}
	g.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		g.arrived <- struct{}{}
		<-g.open
		w.Header().Set("Content-Type", "text/plain")
		_, _ = io.WriteString(w, "from-loser")
	}))
	t.Cleanup(func() {
		select {
		case <-g.open:
		default:
			close(g.open)
		}
		g.Server.Close()
	})
	return g
}

// TestHedgeWinInterruptsHTTPLoser: over two real hops, the hedge's win
// interrupts the primary's parked read at once — the attempt timeout
// is an hour, so nothing else could end it. The loser closes its
// connection instead of parking it and abandons its half-open probe
// without a vote, and the next call on its backend succeeds on a clean
// connection: neither the interrupt's deadline nor an expired attempt
// deadline leaks into a later exchange.
func TestHedgeWinInterruptsHTTPLoser(t *testing.T) {
	loser := newGateServer(t)
	winner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-loser.arrived // answer only once the primary waits on its node
		w.Header().Set("Content-Type", "text/plain")
		_, _ = io.WriteString(w, "from-winner")
	}))
	defer winner.Close()
	bLoser, bWinner := NewHTTPBackend(loser.URL, nil), NewHTTPBackend(winner.URL, nil)
	defer bLoser.Close()
	defer bWinner.Close()
	clock := serving.NewFakeClock(time.Unix(1_700_000_000, 0))
	r, err := New([]NodeSpec{{Name: "loser", Backend: bLoser}, {Name: "winner", Backend: bWinner}}, Config{
		Replication: 2, AttemptTimeout: time.Hour, HedgeMin: time.Millisecond, HedgeMax: time.Millisecond,
		Breaker: serving.BreakerConfig{Threshold: 1, Cooldown: 5 * time.Second, Probes: 1, Clock: clock},
	})
	if err != nil {
		t.Fatal(err)
	}
	key := keyWithPrimary(t, r, "loser")
	brk := r.nodes[0].brk
	brk.Allow()
	brk.Failure()
	clock.Advance(6 * time.Second) // the primary attempt is the half-open probe

	res, err := r.Do(context.Background(), Request{Key: key, Path: "/intent", RawQuery: "q=k"})
	if err != nil || string(res.Body) != "from-winner" {
		t.Fatalf("Do = %q, %v; want the hedge's answer", res.Body, err)
	}
	if st, _ := brk.State(); !brk.CanServe() || st != serving.BreakerHalfOpen {
		t.Fatalf("loser breaker %v, probe slot free %v: want the probe abandoned, no vote", st, brk.CanServe())
	}
	n := nodeStats(t, r, "loser")
	if n.Failures != 0 || n.Hop.Idle != 0 || n.Hop.Dials != 1 {
		t.Fatalf("loser: failures=%d hop %+v; want no failure and its one connection closed", n.Failures, n.Hop)
	}
	if s := r.Stats(); s.Hedges != 1 || s.HedgeWins != 1 {
		t.Fatalf("hedges=%d wins=%d, want 1/1", s.Hedges, s.HedgeWins)
	}

	// The loser answers again: its probe succeeds on a fresh connection.
	close(loser.open)
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	res, err = r.Do(ctx, Request{Key: key, Path: "/intent", RawQuery: "q=k"})
	if err != nil || string(res.Body) != "from-loser" {
		t.Fatalf("next call = %q, %v; want the loser's own answer", res.Body, err)
	}
	// That exchange's deadline was the caller's; once it has passed,
	// the parked connection must still serve a call without one.
	<-ctx.Done()
	if res, err := bLoser.Do(context.Background(), "/intent", "q=k"); err != nil || string(res.Body) != "from-loser" {
		t.Fatalf("call after the deadline passed = %q, %v", res.Body, err)
	}
	if hs := bLoser.HopStats(); hs.Dials != 2 || hs.StaleRetries != 0 || hs.Idle != 1 {
		t.Fatalf("loser hop %+v; want one fresh dial after the interrupt, then reuse with no stale retry", hs)
	}
	if st, _ := brk.State(); st != serving.BreakerClosed {
		t.Fatalf("loser breaker %v after its probe succeeded, want closed", st)
	}
}

// TestHedgedHTTPAttemptsTimeOut: neither node answers. The primary and
// the hedge (or, on a host too slow to fire it first, the failover)
// each run out their own attempt timeout, armed only on the
// hop connection, and each is a failure vote that opens its node's
// threshold-1 breaker.
func TestHedgedHTTPAttemptsTimeOut(t *testing.T) {
	var specs []NodeSpec
	for _, name := range []string{"a", "b"} {
		b := NewHTTPBackend(newGateServer(t).URL, nil)
		defer b.Close()
		specs = append(specs, NodeSpec{Name: name, Backend: b})
	}
	r, err := New(specs, Config{
		Replication: 2, AttemptTimeout: 30 * time.Millisecond, HedgeMin: time.Millisecond, HedgeMax: time.Millisecond,
		Breaker: serving.BreakerConfig{Threshold: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Do(context.Background(), Request{Key: "k", Path: "/intent", RawQuery: "q=k"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the attempts' deadline", err)
	}
	for _, n := range r.Stats().Nodes {
		if n.Failures != 1 || n.BreakerState != serving.BreakerOpen || n.Hop.Idle != 0 {
			t.Fatalf("node %s: failures=%d breaker=%v idle=%d; want a failure vote that opens the breaker", n.Name, n.Failures, n.BreakerState, n.Hop.Idle)
		}
	}
	if s := r.Stats(); s.Hedges+s.Failovers != 1 {
		t.Fatalf("hedges=%d failovers=%d, want node b tried once", s.Hedges, s.Failovers)
	}
}

// cannedServer answers every request on every connection with reply.
// It reads with ReadSlice and writes one fixed slice, so it allocates
// nothing per request and an allocation count sees only the client.
func cannedServer(t *testing.T, reply string) (base string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	out := []byte(reply)
	var conns sync.WaitGroup
	t.Cleanup(func() {
		ln.Close()
		conns.Wait()
	})
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			conns.Add(1)
			go func() {
				defer conns.Done()
				defer c.Close()
				br := bufio.NewReader(c)
				for {
					line, err := br.ReadSlice('\n')
					if err != nil {
						return
					}
					if len(line) == 2 { // the blank line ending a request head
						if _, err := c.Write(out); err != nil {
							return
						}
					}
				}
			}()
		}
	}()
	return "http://" + ln.Addr().String()
}

// TestRoutedLookupAllocBudget pins what a routed request allocates in
// the router and the hop together, over real HTTPBackends with the
// hedge armed but never firing: the response body and the caller-cancel
// registration (context.AfterFunc on a long-lived caller ctx, as a load
// generator or server passes).
func TestRoutedLookupAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const reply = "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\n{}"
	var specs []NodeSpec
	for _, name := range []string{"n0", "n1", "n2"} {
		b := NewHTTPBackend(cannedServer(t, reply), nil)
		defer b.Close()
		specs = append(specs, NodeSpec{Name: name, Backend: b})
	}
	r, err := New(specs, Config{Replication: 2, HedgeMin: time.Hour, HedgeMax: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := Request{Key: "camping", Path: "/intent", RawQuery: "q=camping"}
	for i := 0; i < 10; i++ { // dial, park, learn the content type
		if _, err := r.Do(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(500, func() {
		if res, err := r.Do(ctx, req); err != nil || string(res.Body) != "{}" {
			t.Fatalf("Do = %q, %v", res.Body, err)
		}
	})
	if s := r.Stats(); s.Hedges != 0 || s.Nodes[0].Hop.Dials+s.Nodes[1].Hop.Dials+s.Nodes[2].Hop.Dials != 1 {
		t.Fatalf("%d hedges, hop stats %+v: the budget is for one parked connection and no hedge", s.Hedges, s.Nodes)
	}
	if allocs > 3 {
		t.Fatalf("routed request allocates %v times in router and hop, budget is 3", allocs)
	}
	t.Logf("Router.Do over HTTPBackend: %v allocs/op", allocs)
}
