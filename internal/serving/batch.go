package serving

import (
	"net/http"
	"strings"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"cosmo/internal/kg"
)

// This file implements POST /batch: many lookups in one request, parsed
// and answered without allocating per item. The request body is a JSON
// array of items:
//
//	[{"op":"intentions","id":"p1","k":5},
//	 {"op":"related","id":"p1"},
//	 {"op":"intent","q":"camping"}]
//
// and the response is a JSON array with one entry per item, in order.
// Errors are isolated per item: an unknown id or missing field turns
// into {"error":"..."} for that entry while the rest of the batch is
// answered normally. Only structural violations fail the whole request:
// a body that is not JSON, or whose top level is not an array of
// objects, is 400; more than the deployment's MaxBatchItems items is
// 413.
//
// An item reads four keys; every other key is skipped.
//
//   - As in encoding/json, a key given twice takes its last value.
//   - "op", "id" and "q" must be strings and "k" an integer literal (5,
//     not 5.0 or 5e0). Any other value, null included, makes the item
//     {"error":"invalid item"}.
//   - k defaults to 10. A k of 0 or below means 10, and one above 1000
//     means 1000.
//   - Then, in order: no op is "missing op"; op "intentions" or
//     "related" without an id is "missing id"; op "intent" without a q
//     is "missing q"; any other op is "unknown op".
//   - Strings decode as encoding/json decodes them: escapes resolve, an
//     unpaired surrogate escape or a byte that is not UTF-8 becomes
//     U+FFFD.
//
// One limit differs from encoding/json: a value nested more than 64
// levels below an item's key is 400, where encoding/json allows 10,000.
//
// The parser is hand-rolled and streaming: it walks the body bytes
// once, unescaping the few fields it cares about ("op", "id", "q",
// "k") into a pooled scratch arena that is resliced to [:0] per item,
// and skips everything else in place. Ids and intent queries stay byte
// slices all the way down: the encoders, the snapshot lookups and the
// cache path (handleQuery) take a kg.Key, string or bytes, through one
// generic function per layer. So a batch of M KG lookups and cache hits
// costs a small constant number of allocations independent of M; an
// intent miss takes one cache lookup and copies its query into the
// string it queues.

// DefaultMaxBatchItems bounds one POST /batch request when
// DeployConfig.MaxBatchItems is 0. 256 items keeps the worst-case
// response around a megabyte at default k.
const DefaultMaxBatchItems = 256

// MaxBatchBodyBytes caps the accepted /batch request body (1 MiB): at
// minimum item size that is far beyond any item cap a deployment would
// configure, and it bounds the pooled read buffer.
const MaxBatchBodyBytes = 1 << 20

// Fixed per-item error bodies, hoisted so the error path allocates
// nothing either.
var (
	batchErrInvalidItem = []byte(`{"error":"invalid item"}`)
	batchErrMissingOp   = []byte(`{"error":"missing op"}`)
	batchErrMissingID   = []byte(`{"error":"missing id"}`)
	batchErrMissingQ    = []byte(`{"error":"missing q"}`)
	batchErrUnknownOp   = []byte(`{"error":"unknown op"}`)
	batchErrNoKG        = []byte(`{"error":"knowledge graph not loaded"}`)
)

// batchScratch pools the per-request parse state: the unescaped field
// arenas, resliced to [:0] for every item.
type batchScratch struct {
	key, op, id, q []byte
}

var batchPool = sync.Pool{New: func() any { return &batchScratch{} }}

// AppendBatch parses and executes a /batch body against the deployment,
// appending the JSON response array to dst. It returns the extended
// buffer and an HTTP status: on 200 the response is appended; on 400
// (malformed body) or 413 (too many items) dst is returned unchanged.
func (d *Deployment) AppendBatch(dst []byte, body []byte) ([]byte, int) {
	sc := batchPool.Get().(*batchScratch)
	defer batchPool.Put(sc)
	p := batchParser{b: body}
	p.ws()
	if !p.eat('[') {
		return dst, http.StatusBadRequest
	}
	mark := len(dst)
	dst = append(dst, '[')
	p.ws()
	if p.eat(']') {
		p.ws()
		if !p.done() {
			return dst[:mark], http.StatusBadRequest
		}
		return append(dst, ']'), http.StatusOK
	}
	// One generation answers the whole batch, even across a swap.
	snap := d.Generation().Snap
	items := 0
	for {
		if items >= d.maxBatchItems {
			return dst[:mark], http.StatusRequestEntityTooLarge
		}
		if items > 0 {
			dst = append(dst, ',')
		}
		var ok bool
		dst, ok = d.appendBatchItem(dst, &p, sc, snap)
		if !ok {
			return dst[:mark], http.StatusBadRequest
		}
		items++
		p.ws()
		if p.eat(',') {
			continue
		}
		if p.eat(']') {
			break
		}
		return dst[:mark], http.StatusBadRequest
	}
	p.ws()
	if !p.done() {
		return dst[:mark], http.StatusBadRequest
	}
	return append(dst, ']'), http.StatusOK
}

// appendBatchItem parses one item object and appends its response
// entry, answering KG lookups from snap. ok is false only for
// structural JSON violations (the whole batch fails); per-item problems
// append a fixed error body instead.
func (d *Deployment) appendBatchItem(dst []byte, p *batchParser, sc *batchScratch, snap *kg.Snapshot) ([]byte, bool) {
	sc.op, sc.id, sc.q = sc.op[:0], sc.id[:0], sc.q[:0]
	hasOp, hasID, hasQ := false, false, false
	k := 10
	// One bit per known key whose last value has the wrong type; a later
	// well-typed value clears it, since the last key wins.
	var bad uint8

	p.ws()
	if !p.eat('{') {
		return dst, false
	}
	p.ws()
	if !p.eat('}') {
		for {
			p.ws()
			var ok bool
			sc.key, ok = p.stringInto(sc.key[:0])
			if !ok {
				return dst, false
			}
			p.ws()
			if !p.eat(':') {
				return dst, false
			}
			p.ws()
			c, ok := p.peek()
			if !ok {
				return dst, false
			}
			isStr := c == '"'
			switch {
			case string(sc.key) == "op" && isStr:
				if sc.op, ok = p.stringInto(sc.op[:0]); !ok {
					return dst, false
				}
				hasOp, bad = true, bad&^badOp
			case string(sc.key) == "id" && isStr:
				if sc.id, ok = p.stringInto(sc.id[:0]); !ok {
					return dst, false
				}
				hasID, bad = true, bad&^badID
			case string(sc.key) == "q" && isStr:
				if sc.q, ok = p.stringInto(sc.q[:0]); !ok {
					return dst, false
				}
				hasQ, bad = true, bad&^badQ
			case string(sc.key) == "k" && (c == '-' || (c >= '0' && c <= '9')):
				v, isInt, ok := p.jsonInt()
				if !ok {
					return dst, false
				}
				if !isInt {
					bad |= badK // a fractional k fails the item, not the batch
				} else {
					k, bad = clampK(v), bad&^badK
				}
			default:
				// Unknown key, or a known key with the wrong value type:
				// skip the value to keep the stream aligned; a wrong type
				// fails the item unless a later value replaces it.
				if !p.skipValue() {
					return dst, false
				}
				bad |= badKeyBit(sc.key)
			}
			p.ws()
			if p.eat(',') {
				continue
			}
			if p.eat('}') {
				break
			}
			return dst, false
		}
	}

	switch {
	case bad != 0:
		return append(dst, batchErrInvalidItem...), true
	case !hasOp:
		return append(dst, batchErrMissingOp...), true
	case string(sc.op) == "intentions":
		if !hasID {
			return append(dst, batchErrMissingID...), true
		}
		if snap == nil {
			return append(dst, batchErrNoKG...), true
		}
		return AppendIntentionsJSON(dst, snap, sc.id, k), true
	case string(sc.op) == "related":
		if !hasID {
			return append(dst, batchErrMissingID...), true
		}
		if snap == nil {
			return append(dst, batchErrNoKG...), true
		}
		return AppendRelatedJSON(dst, snap, sc.id, k), true
	case string(sc.op) == "intent":
		if !hasQ {
			return append(dst, batchErrMissingQ...), true
		}
		// A cache hit allocates nothing; a miss copies the query to
		// queue it (see handleQuery).
		f, ok := handleQuery(d, sc.q)
		if !ok {
			return AppendQueuedJSON(dst, sc.q), true
		}
		return AppendFeatureJSON(dst, &f), true
	default:
		return append(dst, batchErrUnknownOp...), true
	}
}

// Bits of appendBatchItem's bad mask, one per known key.
const (
	badOp uint8 = 1 << iota
	badID
	badQ
	badK
)

// badKeyBit is the bad-mask bit of a known key, 0 for any other key.
func badKeyBit(key []byte) uint8 {
	switch string(key) {
	case "op":
		return badOp
	case "id":
		return badID
	case "q":
		return badQ
	case "k":
		return badK
	}
	return 0
}

// batchParser is a single-pass cursor over the request body.
type batchParser struct {
	b []byte
	i int
}

func (p *batchParser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

func (p *batchParser) eat(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

func (p *batchParser) peek() (byte, bool) {
	if p.i < len(p.b) {
		return p.b[p.i], true
	}
	return 0, false
}

func (p *batchParser) done() bool { return p.i == len(p.b) }

// stringInto parses a JSON string starting at the cursor (which must be
// on the opening quote) and appends the unescaped bytes to dst.
//
//cosmo:alloc-free
func (p *batchParser) stringInto(dst []byte) ([]byte, bool) {
	if !p.eat('"') {
		return dst, false
	}
	for p.i < len(p.b) {
		c := p.b[p.i]
		switch {
		case c == '"':
			p.i++
			return dst, true
		case c == '\\':
			p.i++
			if p.i >= len(p.b) {
				return dst, false
			}
			e := p.b[p.i]
			p.i++
			switch e {
			case '"', '\\', '/':
				dst = append(dst, e)
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				r, ok := p.hex4()
				if !ok {
					return dst, false
				}
				if utf16.IsSurrogate(rune(r)) {
					// Try to pair with a following \uXXXX; an unpaired
					// or mismatched surrogate becomes U+FFFD (the second
					// escape, if any, is left for the next iteration).
					rewind := p.i
					if p.i+1 < len(p.b) && p.b[p.i] == '\\' && p.b[p.i+1] == 'u' {
						p.i += 2
						r2, ok2 := p.hex4()
						if !ok2 {
							return dst, false
						}
						if dec := utf16.DecodeRune(rune(r), rune(r2)); dec != utf8.RuneError {
							dst = utf8.AppendRune(dst, dec)
							continue
						}
						p.i = rewind
					}
					dst = utf8.AppendRune(dst, utf8.RuneError)
				} else {
					dst = utf8.AppendRune(dst, rune(r))
				}
			default:
				return dst, false
			}
		case c < 0x20:
			return dst, false // raw control byte inside a string
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			p.i++
		default:
			// A byte that does not start valid UTF-8 decodes as U+FFFD,
			// as encoding/json decodes it.
			r, size := utf8.DecodeRune(p.b[p.i:])
			dst = utf8.AppendRune(dst, r)
			p.i += size
		}
	}
	return dst, false
}

// hex4 reads four hex digits at the cursor.
func (p *batchParser) hex4() (uint32, bool) {
	if p.i+4 > len(p.b) {
		return 0, false
	}
	var v uint32
	for j := 0; j < 4; j++ {
		c := p.b[p.i+j]
		switch {
		case c >= '0' && c <= '9':
			v = v<<4 | uint32(c-'0')
		case c >= 'a' && c <= 'f':
			v = v<<4 | uint32(c-'a'+10)
		case c >= 'A' && c <= 'F':
			v = v<<4 | uint32(c-'A'+10)
		default:
			return 0, false
		}
	}
	p.i += 4
	return v, true
}

// jsonInt parses a JSON number at the cursor. isInt is false when the
// number carries a fraction or exponent (the value is then meaningless
// but the stream stays aligned).
func (p *batchParser) jsonInt() (v int, isInt, ok bool) {
	neg := p.eat('-')
	start := p.i
	if p.eat('0') {
		// JSON allows no leading zero: "0" is a whole integer part.
		if p.i < len(p.b) && p.b[p.i] >= '0' && p.b[p.i] <= '9' {
			return 0, false, false
		}
	}
	for p.i < len(p.b) && p.b[p.i] >= '0' && p.b[p.i] <= '9' {
		// Values beyond the clamp bound saturate; k is capped at 1000
		// anyway, so overflow cannot matter.
		if v < 1<<20 {
			v = v*10 + int(p.b[p.i]-'0')
		}
		p.i++
	}
	if p.i == start {
		return 0, false, false
	}
	isInt = true
	if p.i < len(p.b) && (p.b[p.i] == '.' || p.b[p.i] == 'e' || p.b[p.i] == 'E') {
		isInt = false
		if !p.skipNumberTail() {
			return 0, false, false
		}
	}
	if neg {
		v = -v
	}
	return v, isInt, true
}

// skipNumberTail consumes a fraction/exponent suffix starting at '.',
// 'e' or 'E'.
func (p *batchParser) skipNumberTail() bool {
	if p.eat('.') {
		start := p.i
		for p.i < len(p.b) && p.b[p.i] >= '0' && p.b[p.i] <= '9' {
			p.i++
		}
		if p.i == start {
			return false
		}
	}
	if p.eat('e') || p.eat('E') {
		if !p.eat('+') {
			p.eat('-')
		}
		start := p.i
		for p.i < len(p.b) && p.b[p.i] >= '0' && p.b[p.i] <= '9' {
			p.i++
		}
		if p.i == start {
			return false
		}
	}
	return true
}

// skipValue consumes any JSON value at the cursor without materializing
// it. Depth-limited so a hostile body cannot overflow the stack.
func (p *batchParser) skipValue() bool { return p.skipValueDepth(0) }

const batchMaxSkipDepth = 64

func (p *batchParser) skipValueDepth(depth int) bool {
	if depth > batchMaxSkipDepth {
		return false
	}
	p.ws()
	c, ok := p.peek()
	if !ok {
		return false
	}
	switch {
	case c == '"':
		return p.skipString()
	case c == '{':
		p.i++
		p.ws()
		if p.eat('}') {
			return true
		}
		for {
			p.ws()
			if !p.skipString() {
				return false
			}
			p.ws()
			if !p.eat(':') {
				return false
			}
			if !p.skipValueDepth(depth + 1) {
				return false
			}
			p.ws()
			if p.eat(',') {
				continue
			}
			if p.eat('}') {
				return true
			}
			return false
		}
	case c == '[':
		p.i++
		p.ws()
		if p.eat(']') {
			return true
		}
		for {
			if !p.skipValueDepth(depth + 1) {
				return false
			}
			p.ws()
			if p.eat(',') {
				continue
			}
			if p.eat(']') {
				return true
			}
			return false
		}
	case c == 't':
		return p.lit("true")
	case c == 'f':
		return p.lit("false")
	case c == 'n':
		return p.lit("null")
	default:
		_, _, ok := p.jsonInt()
		return ok
	}
}

// skipString consumes a JSON string without unescaping it, checking
// its escapes.
func (p *batchParser) skipString() bool {
	if !p.eat('"') {
		return false
	}
	for p.i < len(p.b) {
		c := p.b[p.i]
		switch {
		case c == '"':
			p.i++
			return true
		case c == '\\':
			p.i++
			if p.eat('u') {
				if _, ok := p.hex4(); !ok {
					return false
				}
				continue
			}
			if p.i >= len(p.b) || strings.IndexByte(`"\/bfnrt`, p.b[p.i]) < 0 {
				return false
			}
			p.i++
		case c < 0x20:
			return false
		default:
			p.i++
		}
	}
	return false
}

func (p *batchParser) lit(s string) bool {
	if p.i+len(s) > len(p.b) || string(p.b[p.i:p.i+len(s)]) != s {
		return false
	}
	p.i += len(s)
	return true
}
