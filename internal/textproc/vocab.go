package textproc

import (
	"fmt"
	"strings"
)

// Vocab is one run's vocabulary. Every distinct token of the texts added
// to it gets an int32 ID, and its lowered form, stopword flag and stem
// are worked out once; every distinct stem gets an ID of its own, since
// two tokens can share a stem. Every distinct text is tokenized once,
// into the token IDs its readers take back with Tokens.
//
// Add is sequential. The read methods may run on any number of
// goroutines at once, but never beside an Add: a caller adds what its
// stages will read before it fans them out.
type Vocab struct {
	texts   map[string]span // added text -> its token IDs in ids
	ids     []int32         // the token IDs of every added text, back to back
	tokenID map[string]int32
	tokens  []vocabToken // by token ID
	stemID  map[string]int32
	stems   []string // by stem ID
	buf     []byte   // the text Add is tokenizing, lowered
}

// span is the half-open range [lo, hi) of ids that holds one text.
type span struct{ lo, hi int32 }

type vocabToken struct {
	text string // the lowered token
	stem int32  // the ID of Stem(text)
	stop bool   // IsStopword(text)
}

// NewVocab returns an empty vocabulary.
func NewVocab() *Vocab {
	return &Vocab{texts: map[string]span{}, tokenID: map[string]int32{}, stemID: map[string]int32{}}
}

// Add tokenizes each text v does not hold yet. A text's tokens are those
// of Tokenize(text). The text is lowered into a buffer v reuses and only
// its new tokens are copied out of it (a lower-case ASCII text's are its
// own substrings), so the only allocations beyond v's own tables are
// those copies, a non-ASCII text's lowered copy and the stems of new
// tokens whose suffix rule appends a replacement.
func (v *Vocab) Add(texts ...string) {
	for _, s := range texts {
		if _, ok := v.texts[s]; ok {
			continue
		}
		lo := len(v.ids)
		v.buf = appendLowered(v.buf[:0], s)
		same := string(v.buf) == s
		for start, end := nextToken(v.buf, 0); end >= 0; start, end = nextToken(v.buf, end) {
			sub := ""
			if same {
				sub = s[start:end]
			}
			v.ids = append(v.ids, v.token(v.buf[start:end], sub))
		}
		//cosmo:lint-ignore unchecked-narrowing a run's texts hold far fewer than 2^31 tokens
		v.texts[s] = span{int32(lo), int32(len(v.ids))}
	}
}

// token returns the ID of the lowered token b, adding it if it is new:
// as sub, a string that equals b, or else as a copy of b.
func (v *Vocab) token(b []byte, sub string) int32 {
	if id, ok := v.tokenID[string(b)]; ok {
		return id
	}
	t := sub
	if t == "" {
		t = string(b)
	}
	st := Stem(t)
	sid, ok := v.stemID[st]
	if !ok {
		//cosmo:lint-ignore unchecked-narrowing a run has far fewer than 2^31 distinct stems
		sid = int32(len(v.stems))
		v.stems = append(v.stems, st)
		v.stemID[st] = sid
	}
	//cosmo:lint-ignore unchecked-narrowing a run has far fewer than 2^31 distinct tokens
	id := int32(len(v.tokens))
	v.tokens = append(v.tokens, vocabToken{text: t, stem: sid, stop: stopwords[t]})
	v.tokenID[t] = id
	return id
}

// Tokens returns the token IDs of s, Tokenize(s) in v's IDs. The slice
// belongs to v and must not be modified. s must have been added: asking
// for a text v never saw is a bug in the caller, and panics.
func (v *Vocab) Tokens(s string) []int32 {
	sp, ok := v.texts[s]
	if !ok {
		panic(fmt.Sprintf("textproc: %q was never added to the vocabulary", s))
	}
	return v.ids[sp.lo:sp.hi:sp.hi]
}

// IsStopword reports whether token id is a stopword.
func (v *Vocab) IsStopword(id int32) bool { return v.tokens[id].stop }

// Stem returns the stem ID of token id.
func (v *Vocab) Stem(id int32) int32 { return v.tokens[id].stem }

// StemText returns the stem with ID stem, Stem of its tokens.
func (v *Vocab) StemText(stem int32) string { return v.stems[stem] }

// NumStems returns how many distinct stems v holds; stem IDs run from 0
// to NumStems()-1.
func (v *Vocab) NumStems() int { return len(v.stems) }

// AppendContentStems appends the stem IDs of s's non-stopword tokens to
// dst: AppendContentStems(nil, s) in v's stem IDs. s must have been added.
func (v *Vocab) AppendContentStems(dst []int32, s string) []int32 {
	for _, id := range v.Tokens(s) {
		if t := &v.tokens[id]; !t.stop {
			dst = append(dst, t.stem)
		}
	}
	return dst
}

// LooksComplete applies the linguistic completeness heuristics from the
// paper's coarse-grained rule filter to an added s whose token IDs are
// toks: a knowledge string must contain at least two tokens, must not
// end mid-word (trailing comma, conjunction, preposition, or article),
// and must contain at least one non-stopword.
func (v *Vocab) LooksComplete(s string, toks []int32) bool {
	if len(toks) < 2 {
		return false
	}
	switch v.tokens[toks[len(toks)-1]].text {
	case "and", "or", "but", "the", "a", "an", "of", "to", "for", "with",
		"in", "on", "at", "by", "because", "is", "are", "that", "which":
		return false
	}
	if strings.HasSuffix(strings.TrimSpace(s), ",") {
		return false
	}
	for _, id := range toks {
		if !v.tokens[id].stop {
			return true
		}
	}
	return false
}
