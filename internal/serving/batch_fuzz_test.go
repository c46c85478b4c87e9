package serving

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"cosmo/internal/kg"
)

// fuzzBatchLimit is the item cap of the fuzzed deployment, small so that
// short inputs reach 413.
const fuzzBatchLimit = 4

// batchSeeds are bodies the parser must agree with encoding/json on:
// the shapes the unit tests pin, then one group per disagreement this
// oracle found in the parser, each fixed there.
var batchSeeds = []string{
	``, ` [ ] `, `{}`, `[`, `[1]`, `[{}]`, `[{},]`, `[{}] x`, `[null]`,
	`[{"op":"intentions","id":"q:tent","k":1},{"op":"related","id":"p:P1"},{"op":"intent","q":"camping"}]`,
	`[{"op":"intentions"},{"id":"q:tent"},{"op":"warp"},{"op":"intent"}]`,
	`[{"op":"related","id":"p:P1","k":1.5}]`,
	`[{"op":5,"id":"q:tent"}]`,
	`[{"op":"intentions","id":"q:tent","extra":{"a":[1,true,null,"x",-0.5e+3]},"note":"😀"}]`,
	`[{"op":"intentions","id":"q:tent","k":999999}]`,
	`[{"op":"intentions","id":"q:tent","k":-3}]`,
	`[{"op":"intentions","id":"q:tent","k":99999999999999999999999}]`,
	`[{},{},{},{}]`, `[{},{},{},{},{}]`, `[{},{},{},{},1]`, `[{},{},{},{},{}`,
	`[{"\u006fp":"intentions","id":"q:\u0074ent"}]`,
	`[{"op":"intent","q":"\ud83d\ude00 \ud800 \udc00\u0041"}]`,
	`1E700`, `[{"x":1E700},{},{},{},{}`,
	// Nesting at the parser's skip limit, then one level past it.
	`[{"x":` + strings.Repeat("[", 65) + strings.Repeat("]", 65) + `}]`,
	`[{"x":` + strings.Repeat("[", 66) + strings.Repeat("]", 66) + `}]`,
	// A leading zero is not JSON.
	`[{"op":"intentions","id":"q:tent","k":05}]`,
	`[{"x":-01}]`,
	// A skipped string's escapes must be valid.
	`[{"x":"\q"}]`,
	`[{"x":"\u12"}]`,
	// The last of a repeated key wins, type included.
	`[{"op":5,"op":"intentions","id":"q:tent"}]`,
	`[{"op":"intentions","id":"q:tent","k":2,"k":null}]`,
	`[{"op":"intentions","id":"q:tent","k":"3","k":3}]`,
	// Bytes that are not UTF-8 decode as U+FFFD.
	"[{\"op\":\"intent\",\"q\":\"\xff\xfe\"}]",
	"[{\"op\":\"intentions\",\"id\":\"q:t\xe9nt\"}]",
	"[{\"op\":\"related\",\"id\":\"\xed\xa0\x80\"}]",
}

// FuzzBatch is a differential fuzz of AppendBatch against encoding/json
// on the same body. A body is answered 200 exactly when it is valid JSON
// whose top level is an array of objects with at most fuzzBatchLimit
// items; on 200, entry i is what batchReference builds from the decoded
// item i. The one stated divergence is the nesting limit in batch.go's
// header comment.
func FuzzBatch(f *testing.F) {
	for _, body := range batchSeeds {
		f.Add([]byte(body))
	}
	snap := testSnapshot(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		checkBatch(t, snap, body)
	})
}

// checkBatch holds the answer of a fresh deployment serving snap to the
// encoding/json reference. A fresh one per body keeps every intent item
// a cache miss and every failure replayable on its own.
func checkBatch(t *testing.T, snap *kg.Snapshot, body []byte) {
	t.Helper()
	d := NewDeploymentContext(DeployConfig{DailyCacheCap: 8, MaxBatchItems: fuzzBatchLimit}, echoResponder("v1"))
	d.Install(&Generation{Snap: snap})
	prefix := []byte("prefix")
	out, status := d.AppendBatch(prefix, body)
	wantStatus, alt, want := batchReference(snap, body, fuzzBatchLimit)
	if status != wantStatus && status != alt {
		t.Fatalf("AppendBatch(%q) = %d, encoding/json says %d", body, status, wantStatus)
	}
	if !bytes.HasPrefix(out, prefix) {
		t.Fatalf("AppendBatch(%q) overwrote the destination prefix: %q", body, out)
	}
	if status != http.StatusOK {
		if len(out) != len(prefix) {
			t.Fatalf("AppendBatch(%q) = %d but appended %q", body, status, out[len(prefix):])
		}
		return
	}
	var got []json.RawMessage
	if err := json.Unmarshal(out[len(prefix):], &got); err != nil {
		t.Fatalf("AppendBatch(%q) answered invalid JSON %q: %v", body, out[len(prefix):], err)
	}
	if len(got) != len(want) {
		t.Fatalf("AppendBatch(%q) answered %d entries, want %d", body, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("AppendBatch(%q) entry %d = %s, want %s", body, i, got[i], want[i])
		}
	}
}

// batchReference is what AppendBatch must answer for body, worked out
// from encoding/json: the status and, on 200, each entry. alt is a
// second status the parser may answer instead (0 if none):
//
//   - 413 for a body that is not JSON but starts with limit objects: the
//     parser stops at the item cap before it reaches the error;
//   - 400 for a value nested past the parser's skip limit, the stated
//     divergence in batch.go's header comment.
func batchReference(snap *kg.Snapshot, body []byte, limit int) (status, alt int, entries [][]byte) {
	if !json.Valid(body) {
		if leadingObjects(body) >= limit {
			alt = http.StatusRequestEntityTooLarge
		}
		return http.StatusBadRequest, alt, nil
	}
	// An item's value starts inside the top array and the item object.
	if nestedPast(body, 2+batchMaxSkipDepth+1) {
		alt = http.StatusBadRequest
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var top any
	if err := dec.Decode(&top); err != nil {
		panic(err) // json.Valid said yes
	}
	items, ok := top.([]any)
	if !ok {
		return http.StatusBadRequest, alt, nil
	}
	for i, it := range items {
		if i == limit {
			return http.StatusRequestEntityTooLarge, alt, nil
		}
		obj, ok := it.(map[string]any)
		if !ok {
			return http.StatusBadRequest, alt, nil
		}
		entries = append(entries, batchEntryReference(snap, obj))
	}
	return http.StatusOK, alt, entries
}

// batchEntryReference applies the item rules of batch.go's header
// comment to one decoded item. Decoding into a map already applies
// "the last key wins".
func batchEntryReference(snap *kg.Snapshot, item map[string]any) []byte {
	for _, key := range []string{"op", "id", "q"} {
		if v, present := item[key]; present {
			if _, isStr := v.(string); !isStr {
				return []byte(`{"error":"invalid item"}`)
			}
		}
	}
	k := 10
	if v, present := item["k"]; present {
		n, isNum := v.(json.Number)
		if !isNum || strings.ContainsAny(string(n), ".eE") {
			return []byte(`{"error":"invalid item"}`)
		}
		// Out of int64 range ParseInt saturates, which the clamp absorbs.
		switch i, _ := strconv.ParseInt(string(n), 10, 64); {
		case i <= 0:
		case i > 1000:
			k = 1000
		default:
			k = int(i)
		}
	}
	op, hasOp := item["op"].(string)
	id, hasID := item["id"].(string)
	q, hasQ := item["q"].(string)
	switch {
	case !hasOp:
		return []byte(`{"error":"missing op"}`)
	case (op == "intentions" || op == "related") && !hasID:
		return []byte(`{"error":"missing id"}`)
	case op == "intentions":
		return AppendIntentionsJSON(nil, snap, id, k)
	case op == "related":
		return AppendRelatedJSON(nil, snap, id, k)
	case op == "intent" && !hasQ:
		return []byte(`{"error":"missing q"}`)
	case op == "intent":
		// The deployment never runs a batch, so every intent is queued.
		return AppendQueuedJSON(nil, q)
	}
	return []byte(`{"error":"unknown op"}`)
}

// leadingObjects counts the objects that decode at the head of a
// top-level array before anything else, or an error, comes up.
func leadingObjects(body []byte) int {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	if tok, err := dec.Token(); err != nil || tok != json.Delim('[') {
		return 0
	}
	n := 0
	for dec.More() {
		var v any
		if err := dec.Decode(&v); err != nil {
			return n
		}
		if _, ok := v.(map[string]any); !ok {
			return n
		}
		n++
	}
	return n
}

// nestedPast reports whether valid JSON holds a value inside at least
// levels open arrays and objects.
func nestedPast(body []byte, levels int) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber() // a float64 would overflow on 1E700
	depth := 0
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return false
		}
		if err != nil {
			panic(err) // json.Valid said yes
		}
		switch tok {
		case json.Delim(']'), json.Delim('}'):
			depth--
			continue
		}
		if depth >= levels {
			return true
		}
		if tok == json.Delim('[') || tok == json.Delim('{') {
			depth++
		}
	}
}
