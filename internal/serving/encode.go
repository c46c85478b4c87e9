package serving

import (
	"cosmo/internal/kg"
	"cosmo/internal/wire"
)

// This file holds the hand-rolled encoders for every query response;
// JSON is the only response format. Each encoder appends into a
// caller-provided buffer (pooled via wire.Get in the handlers) and is
// byte-identical to what encoding/json produced for the same response
// value — map keys in sorted order, struct fields in declaration order,
// nil slices as null — which encode_test.go pins with the stdlib as the
// oracle. writeJSON in http.go appends the trailing '\n', matching
// json.Encoder.Encode, and sends the buffer. An id or query is a
// kg.Key: the GET handlers pass strings, /batch passes bytes straight
// out of its request arena, and both encode to the same bytes.

// AppendQueuedJSON appends the 202 queued-response body for query q:
// {"query":q,"status":"queued"}.
//
//cosmo:alloc-free
func AppendQueuedJSON[K kg.Key](dst []byte, q K) []byte {
	dst = append(dst, `{"query":`...)
	dst = wire.AppendString(dst, q)
	return append(dst, `,"status":"queued"}`...)
}

// AppendFeatureJSON appends a Feature exactly as encoding/json encodes
// the untagged struct: Go field names in declaration order.
//
//cosmo:alloc-free
func AppendFeatureJSON(dst []byte, f *Feature) []byte {
	dst = append(dst, `{"Query":`...)
	dst = wire.AppendString(dst, f.Query)
	dst = append(dst, `,"Intents":`...)
	dst = appendStringSliceJSON(dst, f.Intents)
	dst = append(dst, `,"Relations":`...)
	dst = appendStringSliceJSON(dst, f.Relations)
	dst = append(dst, `,"SubCategory":`...)
	dst = wire.AppendString(dst, f.SubCategory)
	dst = append(dst, `,"StrongIntent":`...)
	dst = wire.AppendBool(dst, f.StrongIntent)
	dst = append(dst, `,"Version":`...)
	dst = wire.AppendInt(dst, int64(f.Version))
	dst = append(dst, `,"CreatedAt":`...)
	dst = wire.AppendTime(dst, f.CreatedAt)
	dst = append(dst, `,"Stale":`...)
	dst = wire.AppendBool(dst, f.Stale)
	return append(dst, '}')
}

// appendStringSliceJSON matches encoding/json's slice form: nil
// encodes as null, empty-but-non-nil as [].
//
//cosmo:alloc-free
func appendStringSliceJSON(dst []byte, ss []string) []byte {
	if ss == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = wire.AppendString(dst, s)
	}
	return append(dst, ']')
}

// AppendIntentionsJSON appends the /intentions response for a node:
// {"id":id,"intentions":[{"relation":...,"intention":...,
// "plausible":...,"typical":...,"support":...},...]}.
//
//cosmo:alloc-free
func AppendIntentionsJSON[K kg.Key](dst []byte, snap *kg.Snapshot, id K, k int) []byte {
	dst = append(dst, `{"id":`...)
	dst = wire.AppendString(dst, id)
	return appendIntentionsTail(dst, kg.IntentionsOf(snap, id), k)
}

// appendIntentionsTail encodes up to k edges of seq off the columns.
//
//cosmo:alloc-free
func appendIntentionsTail(dst []byte, seq kg.EdgeSeq, k int) []byte {
	dst = append(dst, `,"intentions":[`...)
	n := seq.Len()
	if n > k {
		n = k
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			dst = append(dst, ',')
		}
		rel, label, plausible, typical, support := seq.Intention(i)
		dst = append(dst, `{"relation":`...)
		dst = wire.AppendString(dst, string(rel))
		dst = append(dst, `,"intention":`...)
		dst = wire.AppendString(dst, label)
		dst = append(dst, `,"plausible":`...)
		dst = wire.AppendFloat(dst, plausible)
		dst = append(dst, `,"typical":`...)
		dst = wire.AppendFloat(dst, typical)
		dst = append(dst, `,"support":`...)
		dst = wire.AppendInt(dst, int64(support))
		dst = append(dst, '}')
	}
	return append(dst, "]}"...)
}

// AppendRelatedJSON appends the /related response for a node:
// {"id":id,"related":[{"ProductID":...,"Label":...,"Score":...,
// "Via":[...]},...]} (untagged kg.Related fields, declaration order).
//
//cosmo:alloc-free
func AppendRelatedJSON[K kg.Key](dst []byte, snap *kg.Snapshot, id K, k int) []byte {
	dst = append(dst, `{"id":`...)
	dst = wire.AppendString(dst, id)
	dst = append(dst, `,"related":[`...)
	seq := kg.RelatedOf(snap, id, k)
	for i := 0; i < seq.Len(); i++ {
		if i > 0 {
			dst = append(dst, ',')
		}
		r := seq.At(i)
		dst = append(dst, `{"ProductID":`...)
		dst = wire.AppendString(dst, r.ProductID)
		dst = append(dst, `,"Label":`...)
		dst = wire.AppendString(dst, r.Label)
		dst = append(dst, `,"Score":`...)
		dst = wire.AppendFloat(dst, r.Score)
		dst = append(dst, `,"Via":`...)
		dst = appendStringSliceJSON(dst, r.Via)
		dst = append(dst, '}')
	}
	seq.Release()
	return append(dst, "]}"...)
}

// AppendKGJSON appends the /kg summary:
// {"edges":E,"nodes":N,"relations":R} (sorted keys, matching the
// stdlib's map encoding).
//
//cosmo:alloc-free
func AppendKGJSON(dst []byte, snap *kg.Snapshot) []byte {
	dst = append(dst, `{"edges":`...)
	dst = wire.AppendInt(dst, int64(snap.NumEdges()))
	dst = append(dst, `,"nodes":`...)
	dst = wire.AppendInt(dst, int64(snap.NumNodes()))
	dst = append(dst, `,"relations":`...)
	dst = wire.AppendInt(dst, int64(snap.NumRelations()))
	return append(dst, '}')
}

// AppendSimilarJSON appends the /similar response:
// {"matches":[{"ID":...,"Label":...,"Score":...},...],"q":q}
// (sorted keys; untagged kg.SimilarMatch fields, declaration order).
//
//cosmo:alloc-free
func AppendSimilarJSON(dst []byte, q string, matches []kg.SimilarMatch) []byte {
	dst = append(dst, `{"matches":[`...)
	for i := range matches {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"ID":`...)
		dst = wire.AppendString(dst, matches[i].ID)
		dst = append(dst, `,"Label":`...)
		dst = wire.AppendString(dst, matches[i].Label)
		dst = append(dst, `,"Score":`...)
		dst = wire.AppendFloat(dst, matches[i].Score)
		dst = append(dst, '}')
	}
	dst = append(dst, `],"q":`...)
	dst = wire.AppendString(dst, q)
	return append(dst, '}')
}
