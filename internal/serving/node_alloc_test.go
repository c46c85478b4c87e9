package serving

import (
	"bytes"
	"net"
	"net/http/httptest"
	"net/url"
	"testing"
)

// nodeRequestAllocBudget is what one /intent cache hit allocates in a
// node, counted with go1.24.0 when the offline build's vocabulary came
// in: 18 in net/http's server (reading the request head, building its
// Request, URL and header map, the response writer) and 2 in the mux
// and the /intent handler, which allocate 2 when served alone. The
// client allocates nothing (see TestNodeRequestAllocBudget), so the
// whole count is the node's. A change to the node's listener or handler
// that lowers it tightens the budget in the same diff.
const nodeRequestAllocBudget = 20

// TestNodeRequestAllocBudget sends /intent cache hits through the real
// handler behind net/http, over one loopback keep-alive connection, and
// pins what a request allocates. The client is a raw connection that
// writes one prebuilt request and reads the reply into a reused buffer,
// so the process-wide count AllocsPerRun takes is the server side's.
func TestNodeRequestAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool deliberately drops items under -race")
	}
	d := batchDeployment(t)
	warmIntentLayers(t, d)
	srv := httptest.NewServer(NewHTTPHandler(d))
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := []byte("GET /intent?q=" + url.QueryEscape(yearlyIntentQ) + " HTTP/1.1\r\nHost: node\r\n\r\n")
	want := AppendFeatureJSON(nil, &Feature{Query: yearlyIntentQ, Intents: []string{"used for camping"}, Version: 1})
	buf := make([]byte, 0, 4096)
	roundTrip := func() {
		if _, err := conn.Write(req); err != nil {
			t.Fatal(err)
		}
		buf = buf[:0]
		for !replyComplete(buf) {
			n, err := conn.Read(buf[len(buf):cap(buf)])
			if err != nil {
				t.Fatal(err)
			}
			buf = buf[:len(buf)+n]
		}
		if !bytes.HasPrefix(buf, []byte("HTTP/1.1 200 ")) || !bytes.Contains(buf, want) {
			t.Fatalf("reply %q, want a 200 carrying %s", buf, want)
		}
	}
	for i := 0; i < 10; i++ { // warm the handler's and the server's pools
		roundTrip()
	}
	allocs := testing.AllocsPerRun(500, roundTrip)
	t.Logf("/intent cache hit through net/http: %v allocs/request", allocs)
	if allocs > nodeRequestAllocBudget {
		t.Errorf("/intent cache hit allocates %v times, budget %d", allocs, nodeRequestAllocBudget)
	}
}

// replyComplete reports whether b holds a whole HTTP/1.1 reply: its head
// and the Content-Length bytes of body after it.
func replyComplete(b []byte) bool {
	head := bytes.Index(b, []byte("\r\n\r\n"))
	if head < 0 {
		return false
	}
	i := bytes.Index(b[:head], []byte("Content-Length: "))
	if i < 0 {
		return false
	}
	n := 0
	for _, c := range b[i+len("Content-Length: ") : head] {
		if c < '0' || c > '9' {
			break
		}
		n = 10*n + int(c-'0')
	}
	return len(b) >= head+4+n
}
