package serving

import (
	"bytes"
	"context"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"cosmo/internal/fnv1a"
	"cosmo/internal/wire"
)

// staleKeyQ is served by the store only: processed once, then the
// daily layer is reset.
const staleKeyQ = "evicted then asked: schlafsack 😀"

// keyDeployment is a deployment whose cache answers yearlyIntentQ from
// the yearly layer, dailyIntentQ from the daily layer and staleKeyQ
// stale from the store; every other query misses.
func keyDeployment(t *testing.T) *Deployment {
	d := NewDeploymentContext(DeployConfig{DailyCacheCap: 8}, echoResponder("v1"))
	d.Clock = NewFakeClock(time.Date(2026, 10, 1, 12, 0, 0, 0, time.UTC))
	d.HandleQuery(staleKeyQ)
	d.RunBatchContext(context.Background(), 16)
	d.Cache.ResetDaily()
	warmIntentLayers(t, d)
	return d
}

// FuzzKeyTypesAgree passes each key once as a string and once as a
// []byte through every layer that takes either — the hash, the JSON
// string encoder, the shard pick, the snapshot lookups behind the
// encoders, and the cache path — and requires the same result for both.
func FuzzKeyTypesAgree(f *testing.F) {
	snap := testSnapshot(f, "zelt für 2", "日本😀")
	seeds := []string{
		"", "tent", "p:nope", "q:nope", "p:NOPE", "q:", `quo"te`, `quo"te <&> \`,
		"snow man \xff", "\xff\xfe", "\xc3\x28 tail \xe2\x82", "line sep \u2028 para sep \u2029",
		"schlafsack für kinder", "日本😀", strings.Repeat("long key ", 8),
		yearlyIntentQ, dailyIntentQ, staleKeyQ,
	}
	for _, n := range snap.Nodes() {
		seeds = append(seeds, n.ID)
	}
	// Random short keys over a mixed alphabet, not always valid UTF-8.
	rng := rand.New(rand.NewSource(32))
	alphabet := []rune("az Zé—日本😀\x00\"\uFFFD")
	for i := 0; i < 32; i++ {
		b := make([]byte, 0, 64)
		for n := rng.Intn(24); n > 0; n-- {
			if rng.Intn(8) == 0 {
				b = append(b, byte(rng.Intn(256)))
			} else {
				b = utf8.AppendRune(b, alphabet[rng.Intn(len(alphabet))])
			}
		}
		seeds = append(seeds, string(b))
	}
	for _, s := range seeds {
		f.Add(s)
	}
	cache := NewAsyncCacheWithConfig(CacheConfig{DailyCap: 1024, Shards: 64})

	f.Fuzz(func(t *testing.T, key string) {
		kb := []byte(key)
		if s, b := fnv1a.String64(fnv1a.Offset64, key), fnv1a.String64(fnv1a.Offset64, kb); s != b {
			t.Fatalf("String64(%q): string %#x, bytes %#x", key, s, b)
		}
		if s, b := wire.AppendString(nil, key), wire.AppendString(nil, kb); !bytes.Equal(s, b) {
			t.Fatalf("AppendString(%q): string %s, bytes %s", key, s, b)
		}
		if shardOf(cache, key) != shardOf(cache, kb) {
			t.Fatalf("query %q: string and bytes pick different shards", key)
		}
		if _, known := snap.Node(key); snap.ContainsBytes(kb) != known {
			t.Fatalf("ContainsBytes(%q) = %v, Node found %v", key, !known, known)
		}
		for _, k := range []int{1, 10, 1000} {
			if s, b := AppendIntentionsJSON(nil, snap, key, k), AppendIntentionsJSON(nil, snap, kb, k); !bytes.Equal(s, b) {
				t.Fatalf("AppendIntentionsJSON(%q, %d): string %s, bytes %s", key, k, s, b)
			}
			if s, b := AppendRelatedJSON(nil, snap, key, k), AppendRelatedJSON(nil, snap, kb, k); !bytes.Equal(s, b) {
				t.Fatalf("AppendRelatedJSON(%q, %d): string %s, bytes %s", key, k, s, b)
			}
		}
		if s, b := AppendQueuedJSON(nil, key), AppendQueuedJSON(nil, kb); !bytes.Equal(s, b) {
			t.Fatalf("AppendQueuedJSON(%q): string %s, bytes %s", key, s, b)
		}

		// Twice each, so a miss also meets its own queued entry.
		viaString, viaBytes := keyDeployment(t), keyDeployment(t)
		for range 2 {
			sf, sok := handleQuery(viaString, key)
			bf, bok := handleQuery(viaBytes, kb)
			if s, b := AppendFeatureJSON(nil, &sf), AppendFeatureJSON(nil, &bf); sok != bok || !bytes.Equal(s, b) {
				t.Fatalf("handleQuery(%q): string %v %s, bytes %v %s", key, sok, s, bok, b)
			}
		}
		if s, b := viaString.Cache.Stats(), viaBytes.Cache.Stats(); s != b {
			t.Fatalf("query %q: cache stats string %+v, bytes %+v", key, s, b)
		}
		if s, b := viaString.BatchTotals(), viaBytes.BatchTotals(); s != b {
			t.Fatalf("query %q: batch totals string %+v, bytes %+v", key, s, b)
		}
		if s, b := viaString.TopInteractions(10), viaBytes.TopInteractions(10); !slices.Equal(s, b) {
			t.Fatalf("query %q: top interactions string %q, bytes %q", key, s, b)
		}
		if s, b := viaString.Cache.DrainQueue(16), viaBytes.Cache.DrainQueue(16); !slices.Equal(s, b) {
			t.Fatalf("query %q: queued string %q, bytes %q", key, s, b)
		}
	})
}
