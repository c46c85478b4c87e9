package cluster

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"net/http"
	"regexp"
	"strings"
	"testing"
)

// fuzzMaxBody is the proxy body limit of the fuzzed hop, small so that
// short inputs cross it.
const fuzzMaxBody = 64

// hopSeeds are replies the hop must read as net/http does: the framing
// variants and broken replies the unit tests pin, then one reply per
// divergence stated on HTTPBackend.
var hopSeeds = []string{
	"",
	"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Type: text/plain\r\n\r\nok",
	"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nokHTTP/1.1 200 OK\r\n",
	"HTTP/1.1 200 OK\r\ntransfer-ENCODING:  Chunked \r\nContent-Type:text/plain\r\n\r\n5;ext=1\r\nhello\r\n6\r\n world\r\n0\r\nX-Trailer: 1\r\n\r\nnext",
	"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\nok",
	"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok",
	"HTTP/1.1 200\r\nContent-Length: 0\r\n\r\n",
	"HTTP/1.1 204 No Content\r\n\r\nrest",
	"HTTP/1.1 304 Not Modified\r\nContent-Length: 9\r\n\r\n",
	"HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\nContent-Length: 3\r\n\r\n{}\n",
	"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\nonly this much",
	"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n40\r\nshort",
	"HTTP/1.1 200 OK\r\nContent-Le",
	"HTTP/2 200\r\n\r\n",
	"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n",
	"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nokX\r\n0\r\n\r\n",
	"HTTP/1.1 200 OK\r\nContent-Length: 1\r\nContent-Length: 1\r\n\r\na",
	"HTTP/1.1 200 OK\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\nab",
	"HTTP/1.1 200 OK\r\nContent-Type: a\r\nContent-Type: b\r\nContent-Length: 0\r\n\r\n",
	// A status line other than "HTTP/1.x NNN[ reason]".
	"HTTP/1.1  200 OK\r\nContent-Length: 0\r\n\r\n",
	// 1xx is an error.
	"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok",
	// No read-until-close framing.
	"HTTP/1.1 200 OK\r\n\r\nbody until close",
	// A line over 4 KiB.
	"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nX-Pad: " + strings.Repeat("x", 4100) + "\r\n\r\nok",
	// A folded header line, and more header lines than the hop reads.
	"HTTP/1.1 200 OK\r\nX-Note: a\r\n b\r\nContent-Length: 0\r\n\r\n",
	"HTTP/1.1 200 OK\r\n" + strings.Repeat("X-Note: a\r\n", maxHopHeaderLines) + "Content-Length: 0\r\n\r\n",
	// A body over the limit, framed both ways.
	"HTTP/1.1 200 OK\r\nContent-Length: 65\r\n\r\n" + strings.Repeat("b", 65),
	"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n40\r\n" + strings.Repeat("b", 64) + "\r\n1\r\nb\r\n0\r\n\r\n",
}

// FuzzHopResponse is a differential fuzz of the hop's response reader
// against net/http: the input is a node's whole reply to one GET, sent
// over a net.Pipe, and http.ReadResponse plus a body read bounded by
// fuzzMaxBody is the reference. The hop fails exactly when the
// reference does or the reply falls under one of the stated
// divergences; otherwise it answers the reference's status, content
// type and body and leaves the same bytes unread after the response.
func FuzzHopResponse(f *testing.F) {
	for _, reply := range hopSeeds {
		f.Add([]byte(reply))
	}
	f.Fuzz(func(t *testing.T, reply []byte) {
		res, rest, err := hopAnswer(reply)
		want := hopReference(reply)
		switch {
		case err != nil && (want.fail || want.mayFail):
		case err != nil:
			t.Fatalf("hop failed on %q: %v; net/http answers %d %q %q", reply, err, want.Status, want.ContentType, want.Body)
		case want.fail:
			t.Fatalf("hop answered %d %q %q to %q, which net/http refuses or the hop states it refuses", res.Status, res.ContentType, res.Body, reply)
		case res.Status != want.Status || res.ContentType != want.ContentType || !bytes.Equal(res.Body, want.Body):
			t.Fatalf("hop answered %d %q %q to %q; net/http answers %d %q %q", res.Status, res.ContentType, res.Body, reply, want.Status, want.ContentType, want.Body)
		case !want.anyRest && !bytes.Equal(rest, want.rest):
			t.Fatalf("hop left %q unread after %q; net/http leaves %q", rest, reply, want.rest)
		}
	})
}

// hopAnswer reads reply as the hop does, through roundTrip on one end
// of a net.Pipe whose other end reads the request and writes reply.
// rest is what a successful read left on the connection.
func hopAnswer(reply []byte) (res Result, rest []byte, err error) {
	b := NewHTTPBackend("http://node", nil)
	b.maxBody = fuzzMaxBody
	client, node := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer node.Close()
		br := bufio.NewReader(node)
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				return
			}
			if line == "\r\n" {
				break
			}
		}
		_, _ = node.Write(reply)
	}()
	hc := &hopConn{c: client, br: bufio.NewReader(client)}
	res, _, err = hc.roundTrip(b, "/kg", "")
	if err == nil {
		rest, _ = io.ReadAll(hc.br)
	}
	client.Close()
	<-done
	return res, rest, err
}

// hopStatusLine is the one status line form the hop reads.
var hopStatusLine = regexp.MustCompile(`^HTTP/1\.[0-9] [0-9]{3}[ \r\n]`)

// hopWant is what the reference allows the hop to do with one reply.
type hopWant struct {
	Result
	rest    []byte // left unread after the response
	fail    bool   // the hop must fail
	mayFail bool   // the hop may fail instead of answering Result
	anyRest bool   // rest is unknown: the bytes after the response are not compared
}

// hopReference is what the hop must do with reply, worked out by
// net/http. The hop must fail when net/http refuses the reply, or when
// the reply falls under a divergence stated on HTTPBackend:
//
//   - a status line that is not "HTTP/1.x NNN", one space apart, then
//     a space and a reason or nothing, is an error;
//   - a 1xx status is an error;
//   - a reply with neither Content-Length nor chunked framing is an error
//     (no read-until-close);
//   - a body over the proxy limit is an error.
//
// The hop may fail instead of answering on a reply that holds a line
// over its 4 KiB read buffer (anywhere), more lines than it reads as
// headers or trailers, or a folded header line.
func hopReference(reply []byte) (w hopWant) {
	lines := bytes.SplitAfter(reply, []byte("\n"))
	w.mayFail = len(lines) > maxHopHeaderLines
	inHead := true
	for i, line := range lines {
		w.mayFail = w.mayFail || len(line) > 4096 || (inHead && i > 0 && len(line) > 0 && (line[0] == ' ' || line[0] == '\t'))
		inHead = inHead && len(bytes.TrimRight(line, "\r\n")) > 0
	}
	br := bufio.NewReader(bytes.NewReader(reply))
	resp, err := http.ReadResponse(br, &http.Request{Method: http.MethodGet})
	if err != nil || !hopStatusLine.Match(reply) || resp.StatusCode < 200 {
		w.fail = true
		return w
	}
	noBody := resp.StatusCode == http.StatusNoContent || resp.StatusCode == http.StatusNotModified
	if resp.ContentLength < 0 && resp.TransferEncoding == nil && !noBody {
		w.fail = true
		return w
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, fuzzMaxBody+1))
	w.Result = Result{Status: resp.StatusCode, ContentType: resp.Header.Get("Content-Type"), Body: body}
	switch {
	case len(body) > fuzzMaxBody:
		w.fail = true
	case err != nil && strings.Contains(err.Error(), "trailer"):
		// net/http refuses a trailer section whose CRLF CRLF end it
		// cannot see in its read buffer, a guard against unbounded
		// trailers, so it refuses one whose lines end in bare LFs. The
		// hop bounds trailers by line count instead and may answer.
		w.mayFail, w.anyRest = true, true
	case err != nil:
		w.fail = true
	default:
		w.rest, _ = io.ReadAll(br)
	}
	return w
}
