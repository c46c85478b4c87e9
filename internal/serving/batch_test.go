package serving

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cosmo/internal/kg"
)

// installTestSimilarity re-installs the deployment's snapshot as a
// generation with its similarity index.
func installTestSimilarity(t *testing.T, d *Deployment) {
	t.Helper()
	g := NewGeneration(d.Generation().Snap, kg.SnapshotStamp{})
	if g.Sim.NumIndexed() == 0 {
		t.Fatal("test snapshot indexed no intentions")
	}
	d.Install(g)
}

// batchDeployment is a deployment with a snapshot installed, ready for
// /batch traffic.
func batchDeployment(t *testing.T) *Deployment {
	t.Helper()
	d := NewDeploymentContext(DeployConfig{DailyCacheCap: 8}, echoResponder("v1"))
	d.Install(&Generation{Snap: testSnapshot(t)})
	return d
}

// runBatch runs a body through AppendBatch and decodes the response.
func runBatch(t *testing.T, d *Deployment, body string) (status int, items []json.RawMessage) {
	t.Helper()
	out, status := d.AppendBatch(nil, []byte(body))
	if status != http.StatusOK {
		return status, nil
	}
	if err := json.Unmarshal(out, &items); err != nil {
		t.Fatalf("response %s does not parse: %v", out, err)
	}
	return status, items
}

// TestBatchLookups pins the happy path: each item is answered in order
// with exactly the bytes the single-lookup endpoint would produce.
func TestBatchLookups(t *testing.T) {
	d := batchDeployment(t)
	snap := d.Generation().Snap
	status, items := runBatch(t, d,
		`[{"op":"intentions","id":"q:tent","k":1},
		  {"op":"related","id":"p:P1"},
		  {"op":"intentions","id":"q:nope"}]`)
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if len(items) != 3 {
		t.Fatalf("%d items, want 3", len(items))
	}
	wants := [][]byte{
		AppendIntentionsJSON(nil, snap, "q:tent", 1),
		AppendRelatedJSON(nil, snap, "p:P1", 10),
		AppendIntentionsJSON(nil, snap, "q:nope", 10),
	}
	for i, want := range wants {
		if !bytes.Equal(items[i], want) {
			t.Errorf("item %d = %s, want %s", i, items[i], want)
		}
	}
}

// TestBatchIntentOp routes intent items through the cache tiers: a cold
// query answers queued, a cached one answers the feature.
func TestBatchIntentOp(t *testing.T) {
	d := batchDeployment(t)
	status, items := runBatch(t, d, `[{"op":"intent","q":"camping"}]`)
	if status != http.StatusOK || len(items) != 1 {
		t.Fatalf("status=%d items=%d", status, len(items))
	}
	var queued struct{ Status, Query string }
	if err := json.Unmarshal(items[0], &queued); err != nil || queued.Status != "queued" || queued.Query != "camping" {
		t.Fatalf("cold intent = %s (%v)", items[0], err)
	}

	d.RunBatchContext(context.Background(), 10) // process the queued miss
	_, items = runBatch(t, d, `[{"op":"intent","q":"camping"}]`)
	var f Feature
	if err := json.Unmarshal(items[0], &f); err != nil || f.Query != "camping" {
		t.Fatalf("warm intent = %s (%v)", items[0], err)
	}
}

// TestBatchPerItemErrors pins error isolation: bad items produce fixed
// error entries, the rest of the batch is answered normally.
func TestBatchPerItemErrors(t *testing.T) {
	d := batchDeployment(t)
	status, items := runBatch(t, d,
		`[{"op":"intentions"},
		  {"id":"q:tent"},
		  {"op":"warp","id":"q:tent"},
		  {"op":"intent"},
		  {"op":"related","id":"p:P1","k":1.5},
		  {"op":5,"id":"q:tent"},
		  {"op":"intentions","id":"q:tent","k":1}]`)
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	wants := []string{
		`{"error":"missing id"}`,
		`{"error":"missing op"}`,
		`{"error":"unknown op"}`,
		`{"error":"missing q"}`,
		`{"error":"invalid item"}`,
		`{"error":"invalid item"}`,
		"", // real answer, checked below
	}
	if len(items) != len(wants) {
		t.Fatalf("%d items, want %d", len(items), len(wants))
	}
	for i, want := range wants[:6] {
		if string(items[i]) != want {
			t.Errorf("item %d = %s, want %s", i, items[i], want)
		}
	}
	if want := AppendIntentionsJSON(nil, d.Generation().Snap, "q:tent", 1); !bytes.Equal(items[6], want) {
		t.Errorf("trailing good item = %s, want %s", items[6], want)
	}
}

// TestBatchReadsOneGeneration: readers POST batches of one id while a
// writer swaps between two snapshots that answer that id differently.
// Every response's items must come from a single snapshot.
func TestBatchReadsOneGeneration(t *testing.T) {
	snaps := []*kg.Snapshot{testSnapshot(t), testSnapshot(t, "hiking")}
	answers := [][]byte{
		AppendIntentionsJSON(nil, snaps[0], "p:P2", 10),
		AppendIntentionsJSON(nil, snaps[1], "p:P2", 10),
	}
	if bytes.Equal(answers[0], answers[1]) {
		t.Fatal("the two snapshots must answer p:P2 differently")
	}
	d := NewDeploymentContext(DeployConfig{DailyCacheCap: 8}, echoResponder("v1"))
	d.Install(&Generation{Snap: snaps[0]})
	h := NewHTTPHandler(d)
	const items = 16
	body := "[" + strings.Repeat(`{"op":"intentions","id":"p:P2"},`, items-1) + `{"op":"intentions","id":"p:P2"}]`

	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for n := 0; n < 200; n++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/batch", strings.NewReader(body)))
				var got []json.RawMessage
				if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil || len(got) != items {
					t.Errorf("POST /batch = %d %s (%v)", rec.Code, rec.Body.Bytes(), err)
					return
				}
				if !bytes.Equal(got[0], answers[0]) && !bytes.Equal(got[0], answers[1]) {
					t.Errorf("item 0 = %s answers from neither snapshot", got[0])
					return
				}
				for i, item := range got {
					if !bytes.Equal(item, got[0]) {
						t.Errorf("item %d = %s but item 0 = %s: one batch answered from two snapshots", i, item, got[0])
						return
					}
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { readers.Wait(); close(done) }()
	for i := 1; ; i++ {
		select {
		case <-done:
			return
		default:
		}
		d.Install(&Generation{Snap: snaps[i%2]})
		runtime.Gosched()
	}
}

// TestBatchNoKG answers per-item 503-equivalents rather than failing
// the request when no snapshot is installed.
func TestBatchNoKG(t *testing.T) {
	d := NewDeploymentContext(DeployConfig{DailyCacheCap: 8}, echoResponder("v1"))
	status, items := runBatch(t, d, `[{"op":"intentions","id":"q:tent"}]`)
	if status != http.StatusOK || string(items[0]) != `{"error":"knowledge graph not loaded"}` {
		t.Fatalf("status=%d item=%s", status, items[0])
	}
}

// TestBatchStructuralErrors pins the whole-request failures: malformed
// JSON is 400 with the destination buffer unchanged, item overflow is
// 413.
func TestBatchStructuralErrors(t *testing.T) {
	d := batchDeployment(t)
	bad := []string{
		``, `{}`, `[`, `[{]`, `[{"op":}]`, `[{"op":"intentions",}]`,
		`[{"op":"intentions" "id":"x"}]`, `[1, 2`, `[] trailing`,
		`[{"op":"intentions","id":"q:tent"}] x`,
		`[{"op":"intentions","id":"unterminated]`,
		`[{"op":"intentions","id":"q:tent","k":+1}]`,
		"[{\"op\":\"intentions\",\"id\":\"q\x01tent\"}]",
	}
	for _, body := range bad {
		prefix := []byte("seed")
		out, status := d.AppendBatch(prefix, []byte(body))
		if status != http.StatusBadRequest {
			t.Errorf("AppendBatch(%q) status = %d, want 400", body, status)
		}
		if !bytes.Equal(out, prefix) {
			t.Errorf("AppendBatch(%q) left %q in dst, want untouched prefix", body, out)
		}
	}

	small := NewDeploymentContext(DeployConfig{DailyCacheCap: 8, MaxBatchItems: 2}, echoResponder("v1"))
	small.Install(&Generation{Snap: testSnapshot(t)})
	var sb strings.Builder
	sb.WriteString(`[`)
	for i := 0; i < 3; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(`{"op":"intentions","id":"q:tent"}`)
	}
	sb.WriteString(`]`)
	if _, status := small.AppendBatch(nil, []byte(sb.String())); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("3 items past a 2-item cap = %d, want 413", status)
	}
	if status, _ := runBatch(t, small, `[{"op":"intentions","id":"q:tent"},{"op":"kg"}]`); status != http.StatusOK {
		t.Fatalf("2 items at a 2-item cap = %d, want 200", status)
	}
}

// TestKClampMatchesGET holds GET /intentions and a /batch intentions
// item to one k bound: for each k both return the same bytes and the
// expected number of entries from a 30-intention head, a k beyond
// int's range included.
func TestKClampMatchesGET(t *testing.T) {
	extra := make([]string, 29)
	for i := range extra {
		extra[i] = fmt.Sprintf("use %02d", i)
	}
	d := NewDeploymentContext(DeployConfig{}, echoResponder("v1"))
	d.Install(&Generation{Snap: testSnapshot(t, extra...)})
	h := NewHTTPHandler(d)
	for _, tc := range []struct {
		k    string
		want int
	}{
		{"0", 10}, {"-1", 10}, {"5", 5}, {"1000", 30}, {"1001", 30},
		{"99999999999999999999", 30}, {"-99999999999999999999", 10},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/intentions?id=p:P2&k="+tc.k, nil))
		get := bytes.TrimSuffix(rec.Body.Bytes(), []byte("\n"))
		out, status := d.AppendBatch(nil, []byte(`[{"op":"intentions","id":"p:P2","k":`+tc.k+`}]`))
		if rec.Code != http.StatusOK || status != http.StatusOK {
			t.Fatalf("k=%s: GET %d, batch %d", tc.k, rec.Code, status)
		}
		if item := out[1 : len(out)-1]; !bytes.Equal(item, get) {
			t.Errorf("k=%s: batch item %s, GET %s", tc.k, item, get)
		}
		var resp struct{ Intentions []json.RawMessage }
		if err := json.Unmarshal(get, &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Intentions) != tc.want {
			t.Errorf("k=%s: %d entries, want %d", tc.k, len(resp.Intentions), tc.want)
		}
	}
}

// TestBatchParsingEdges pins the parser niceties: escapes resolve
// before the snapshot lookup, unknown keys are skipped, k is clamped,
// and an empty batch answers an empty array.
func TestBatchParsingEdges(t *testing.T) {
	d := batchDeployment(t)

	status, items := runBatch(t, d, ` [ ] `)
	if status != http.StatusOK || len(items) != 0 {
		t.Fatalf("empty batch: status=%d items=%d", status, len(items))
	}

	// q is 'q': the unescaped id must hit the snapshot.
	status, items = runBatch(t, d,
		`[{"op":"intentions","id":"q:tent","k":1,"extra":{"a":[1,true,null,"x"]},"note":"😀"}]`)
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if want := AppendIntentionsJSON(nil, d.Generation().Snap, "q:tent", 1); !bytes.Equal(items[0], want) {
		t.Errorf("escaped id item = %s, want %s", items[0], want)
	}

	// k is clamped exactly like the single endpoints: huge values cap at
	// 1000, non-positive values fall back to the default.
	for _, body := range []string{
		`[{"op":"intentions","id":"q:tent","k":999999}]`,
		`[{"op":"intentions","id":"q:tent","k":-3}]`,
		`[{"op":"intentions","id":"q:tent","k":0}]`,
	} {
		if status, _ := runBatch(t, d, body); status != http.StatusOK {
			t.Errorf("AppendBatch(%q) status = %d, want 200", body, status)
		}
	}
}

// Intent queries longer than the 32 bytes Go converts on the stack, so
// a copy of one on the hit path shows up as a heap allocation.
const (
	yearlyIntentQ = "yearly frequent search: lightweight two person tent"
	dailyIntentQ  = "daily batch search: schlafsack für kinder, winter"
)

// warmIntentLayers puts yearlyIntentQ in the yearly layer and
// dailyIntentQ in the daily layer through the deployment's own paths.
func warmIntentLayers(t *testing.T, d *Deployment) {
	t.Helper()
	d.Cache.PreloadYearly([]Feature{{Query: yearlyIntentQ, Intents: []string{"used for camping"}, Version: 1}})
	if _, ok := d.HandleQuery(dailyIntentQ); ok {
		t.Fatal("daily query hit before its batch ran")
	}
	if r := d.RunBatchContext(context.Background(), 16); r.Succeeded != 1 {
		t.Fatalf("batch pass = %+v, want 1 success", r)
	}
}

// TestBatchAllocFree pins the tentpole contract: a batch of M KG
// lookups and cached intent lookups costs a small constant number of
// allocations independent of M — steady-state zero with warmed pools
// and a pre-sized destination.
func TestBatchAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool deliberately drops items under -race")
	}
	d := batchDeployment(t)
	warmIntentLayers(t, d)
	batch := func(item func(sb *strings.Builder, i int)) []byte {
		var sb strings.Builder
		sb.WriteString(`[`)
		for i := 0; i < 64; i++ {
			if i > 0 {
				sb.WriteString(",")
			}
			item(&sb, i)
		}
		sb.WriteString(`]`)
		return []byte(sb.String())
	}
	kgItem := func(sb *strings.Builder, i int) {
		if i%2 == 0 {
			fmt.Fprintf(sb, `{"op":"intentions","id":"q:tent","k":%d}`, i%7+1)
		} else {
			sb.WriteString(`{"op":"related","id":"p:P1"}`)
		}
	}
	cases := []struct {
		name string
		body []byte
	}{
		{"KG", batch(kgItem)},
		{"KG and cached intent", batch(func(sb *strings.Builder, i int) {
			switch i % 4 {
			case 2:
				fmt.Fprintf(sb, `{"op":"intent","q":%q}`, yearlyIntentQ)
			case 3:
				fmt.Fprintf(sb, `{"op":"intent","q":%q}`, dailyIntentQ)
			default:
				kgItem(sb, i)
			}
		})},
	}
	dst := make([]byte, 0, 1<<20)
	for _, tc := range cases {
		// Warm the batch and snapshot scratch pools.
		before := d.Cache.Stats()
		if _, status := d.AppendBatch(dst, tc.body); status != http.StatusOK {
			t.Fatalf("%s: warmup status = %d", tc.name, status)
		}
		if after := d.Cache.Stats(); after.Misses != before.Misses {
			t.Fatalf("%s: %d intent items missed the cache", tc.name, after.Misses-before.Misses)
		}
		var sink []byte
		if n := testing.AllocsPerRun(100, func() {
			sink, _ = d.AppendBatch(dst, tc.body)
		}); n != 0 {
			t.Errorf("64-item %s batch: %.1f allocs/op, want 0", tc.name, n)
		}
		_ = sink
	}
	if st := d.Cache.Stats(); st.YearlyHits == 0 || st.DailyHits == 0 {
		t.Fatalf("cache stats %+v: want hits on both layers", st)
	}
}

// TestBatchIntentAccountingMatchesGET holds a /batch intent item to
// GET /intent for the same query: on a yearly hit, a daily hit, a miss
// and a miss served stale from the store, the two leave the same
// answer bytes, cache counters, stale count and feedback ranking.
func TestBatchIntentAccountingMatchesGET(t *testing.T) {
	const (
		missQ  = "never asked: zelt für 2 — ultraleicht"
		staleQ = "evicted then asked: schlafsack 😀"
	)
	// deployment rebuilds the same state each time: staleQ processed,
	// then the daily layer reset, so only the store still holds it.
	deployment := func(t *testing.T) *Deployment {
		d := batchDeployment(t)
		d.Clock = NewFakeClock(time.Date(2026, 10, 1, 12, 0, 0, 0, time.UTC))
		d.HandleQuery(staleQ)
		d.RunBatchContext(context.Background(), 16)
		d.Cache.ResetDaily()
		warmIntentLayers(t, d)
		return d
	}
	cases := []struct {
		name, q string
		want    func(CacheStats, BatchTotals) bool
	}{
		{"yearly hit", yearlyIntentQ, func(s CacheStats, _ BatchTotals) bool { return s.YearlyHits == 1 }},
		{"daily hit", dailyIntentQ, func(s CacheStats, _ BatchTotals) bool { return s.DailyHits == 1 }},
		{"miss", missQ, func(s CacheStats, b BatchTotals) bool { return s.Misses == 3 && b.StaleServed == 0 }},
		{"stale miss", staleQ, func(s CacheStats, b BatchTotals) bool { return s.Misses == 3 && b.StaleServed == 1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			viaBatch, viaGET := deployment(t), deployment(t)
			item, err := json.Marshal(map[string]string{"op": "intent", "q": tc.q})
			if err != nil {
				t.Fatal(err)
			}
			out, status := viaBatch.AppendBatch(nil, []byte("["+string(item)+"]"))
			if status != http.StatusOK {
				t.Fatalf("batch status = %d", status)
			}
			rec := httptest.NewRecorder()
			NewHTTPHandler(viaGET).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/intent?q="+url.QueryEscape(tc.q), nil))
			if got, want := out[1:len(out)-1], bytes.TrimSuffix(rec.Body.Bytes(), []byte("\n")); !bytes.Equal(got, want) {
				t.Errorf("batch item %s, GET /intent %s", got, want)
			}
			bs, gs := viaBatch.Cache.Stats(), viaGET.Cache.Stats()
			bt, gt := viaBatch.BatchTotals(), viaGET.BatchTotals()
			if bs != gs {
				t.Errorf("cache stats: batch %+v, GET %+v", bs, gs)
			}
			if bt.StaleServed != gt.StaleServed {
				t.Errorf("stale_served: batch %d, GET %d", bt.StaleServed, gt.StaleServed)
			}
			if b, g := viaBatch.TopInteractions(10), viaGET.TopInteractions(10); !slices.Equal(b, g) {
				t.Errorf("top interactions: batch %q, GET %q", b, g)
			}
			if !tc.want(gs, gt) {
				t.Errorf("case did not exercise %s: stats %+v, totals %+v", tc.name, gs, gt)
			}
		})
	}
}

// TestBatchIntentHitsUnderDailyChurn sends /batch intent hits from
// several goroutines while batch passes install and evict daily
// entries in a two-entry daily layer. Run under -race it checks the
// byte hit path's locking; every run checks that each item answers its
// own query and that every lookup is counted once.
func TestBatchIntentHitsUnderDailyChurn(t *testing.T) {
	d := NewDeploymentContext(DeployConfig{DailyCacheCap: 2, CacheShards: 2}, echoResponder("v1"))
	queries := []string{yearlyIntentQ, dailyIntentQ, "zelt", "schlafsack", "stirnlampe für läufer", "kocher", "isomatte", "tarp"}
	d.Cache.PreloadYearly([]Feature{{Query: yearlyIntentQ, Version: 1}})
	var sb strings.Builder
	sb.WriteString("[")
	for i, q := range queries {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, `{"op":"intent","q":%q}`, q)
	}
	sb.WriteString("]")
	body := []byte(sb.String())

	const readers, minBatches, churn = 4, 20, 300
	var (
		wg      sync.WaitGroup
		stop    atomic.Bool
		batches atomic.Int64
	)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < minBatches || !stop.Load(); n++ {
				out, status := d.AppendBatch(nil, body)
				batches.Add(1)
				var items []struct{ Query, Status string }
				if status != http.StatusOK || json.Unmarshal(out, &items) != nil || len(items) != len(queries) {
					t.Errorf("POST /batch = %d %s", status, out)
					return
				}
				for i, it := range items {
					if it.Query != queries[i] {
						t.Errorf("item %d answered %q, want %q", i, it.Query, queries[i])
						return
					}
				}
			}
		}()
	}
	for i := 0; i < churn; i++ {
		d.HandleQuery(queries[i%len(queries)])
		d.RunBatchContext(context.Background(), 4)
	}
	stop.Store(true)
	wg.Wait()

	lookups := int(batches.Load())*len(queries) + churn
	st := d.Cache.Stats()
	if st.Hits+st.Misses != lookups {
		t.Errorf("hits %d + misses %d != %d lookups", st.Hits, st.Misses, lookups)
	}
	if st.Evictions == 0 || st.DailyHits == 0 {
		t.Errorf("stats %+v: want daily hits and evictions", st)
	}
	counted := 0
	for _, qc := range d.Cache.interactions() {
		counted += qc.c
	}
	if counted != lookups {
		t.Errorf("feedback loop counted %d lookups, want %d", counted, lookups)
	}
}

// TestBatchEndpoint exercises POST /batch over HTTP, including the
// method gate and the body-size cap.
func TestBatchEndpoint(t *testing.T) {
	d := batchDeployment(t)
	srv := httptest.NewServer(NewHTTPHandler(d))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /batch = %d, want 405", resp.StatusCode)
	}

	post := func(body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}

	code, body := post(`[{"op":"intentions","id":"q:tent","k":1},{"op":"kg"}]`)
	if code != http.StatusOK {
		t.Fatalf("POST /batch = %d: %s", code, body)
	}
	if !bytes.HasSuffix(body, []byte("]\n")) {
		t.Errorf("batch response must end with ]\\n, got %q tail", body[len(body)-2:])
	}
	var items []json.RawMessage
	if err := json.Unmarshal(body, &items); err != nil || len(items) != 2 {
		t.Fatalf("response %s: %v", body, err)
	}
	if string(items[1]) != `{"error":"unknown op"}` {
		t.Errorf("item 1 = %s", items[1])
	}

	if code, _ := post(`{"not":"an array"}`); code != http.StatusBadRequest {
		t.Errorf("malformed body = %d, want 400", code)
	}

	huge := strings.Repeat(" ", MaxBatchBodyBytes+1)
	if code, _ := post(huge); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body = %d, want 413", code)
	}
}

// TestSimilarEndpoint pins /similar: 503 without an index, then a
// JSON answer that agrees with the index.
func TestSimilarEndpoint(t *testing.T) {
	d := batchDeployment(t)
	srv := httptest.NewServer(NewHTTPHandler(d))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/similar?q=camping")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/similar without an index = %d, want 503", resp.StatusCode)
	}

	installTestSimilarity(t, d)

	resp, err = http.Get(srv.URL + "/similar")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("/similar without q = %d, want 400", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/similar?q=camping&k=1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/similar = %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Q       string
		Matches []struct {
			ID, Label string
			Score     float64
		}
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Q != "camping" || len(out.Matches) != 1 || out.Matches[0].Label != "camping" {
		t.Fatalf("similar = %+v", out)
	}
	if out.Matches[0].Score <= 0.99 {
		t.Errorf("self-similarity score = %g, want ~1", out.Matches[0].Score)
	}
}

// TestHandlersAnswerJSON pins the one response format: every query
// endpoint answers with its status, Content-Type application/json and
// exactly its encoder's bytes plus the trailing newline, whatever the
// Accept header asks for — including the retired binary media type.
func TestHandlersAnswerJSON(t *testing.T) {
	d := batchDeployment(t)
	installTestSimilarity(t, d)
	hit := Feature{Query: "tent", Intents: []string{"used for camping"}, Relations: []string{"USED_FOR_FUNC"}, SubCategory: "tent", StrongIntent: true}
	d.Cache.PreloadYearly([]Feature{hit})
	srv := httptest.NewServer(NewHTTPHandler(d))
	defer srv.Close()

	gen := d.Generation()
	const batchBody = `[{"op":"intentions","id":"q:tent","k":1},{"op":"related","id":"p:P1"}]`
	batchWant, status := d.AppendBatch(nil, []byte(batchBody))
	if status != http.StatusOK {
		t.Fatalf("AppendBatch status = %d", status)
	}
	cases := []struct {
		name, method, path, body string
		status                   int
		want                     []byte
	}{
		{"intent-hit", http.MethodGet, "/intent?q=tent", "", http.StatusOK, AppendFeatureJSON(nil, &hit)},
		{"intent-queued", http.MethodGet, "/intent?q=never+cached", "", http.StatusAccepted, AppendQueuedJSON(nil, "never cached")},
		{"intentions", http.MethodGet, "/intentions?id=q:tent", "", http.StatusOK, AppendIntentionsJSON(nil, gen.Snap, "q:tent", 10)},
		{"related", http.MethodGet, "/related?id=p:P1&k=5", "", http.StatusOK, AppendRelatedJSON(nil, gen.Snap, "p:P1", 5)},
		{"similar", http.MethodGet, "/similar?q=camping", "", http.StatusOK, AppendSimilarJSON(nil, "camping", gen.Sim.Lookup("camping", 10))},
		{"kg", http.MethodGet, "/kg", "", http.StatusOK, AppendKGJSON(nil, gen.Snap)},
		{"batch", http.MethodPost, "/batch", batchBody, http.StatusOK, batchWant},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := append(tc.want, '\n')
			for _, accept := range []string{"", "application/x-cosmo-bin", "*/*"} {
				req, err := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader(tc.body))
				if err != nil {
					t.Fatal(err)
				}
				if accept != "" {
					req.Header.Set("Accept", accept)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != tc.status {
					t.Errorf("Accept %q: status = %d, want %d", accept, resp.StatusCode, tc.status)
				}
				if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
					t.Errorf("Accept %q: Content-Type = %q, want application/json", accept, ct)
				}
				if !bytes.Equal(body, want) {
					t.Errorf("Accept %q: body\n got %q\nwant %q", accept, body, want)
				}
			}
		})
	}
}
