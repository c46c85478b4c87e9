package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"cosmo/internal/cluster"
	"cosmo/internal/cosmolm"
	"cosmo/internal/experiments"
	"cosmo/internal/kg"
	"cosmo/internal/serving"
	"cosmo/internal/wire"
)

// Sizing of the system under test. The world is fixed; only the
// request sequence depends on --seed.
const (
	numNodes    = 3
	replication = 2
	// runnerScale and kgFactor size the served KG. The issue sized it at
	// ScaledKG(20), 15 s to build; the driver allows about 29 s per run
	// and an end-to-end run sets up setupRepeats times, so a set-up may
	// take about 3.5 s: world 1 s + 0.4 s per replica.
	runnerScale = 4
	kgFactor    = 6
	// smokeScale / smokeFactor shrink the world for -smoke and tests.
	smokeScale  = 40
	smokeFactor = 2

	batchEvery = 100 * time.Millisecond
	batchSize  = 256
	yearlyTop  = 256

	// popularitySeed fixes which keys are hot. The Zipf rank-to-key
	// permutation is part of the workload's definition: per-key cost
	// differs by an order of magnitude on /related, so letting --seed
	// move the hot set would measure the seed, not the system.
	popularitySeed = 20240611
	unknownKeys    = 64
)

// sizing is the size of the world a run builds.
type sizing struct {
	scale, factor int
	offline       offlineSize
}

var (
	fullSize  = sizing{runnerScale, kgFactor, offlineSize{offlineEvents, offlineBudget}}
	smokeSize = sizing{smokeScale, smokeFactor, offlineSize{smokeEvents, smokeBudget}}
)

// stackOptions selects the world size and whether the trace wrappers
// are interposed.
type stackOptions struct {
	scale, factor int
	tracer        *tracer // nil: no wrappers at all (end-to-end runs)
}

// setupTimings are the set-up stages a trace run reports.
type setupTimings struct {
	world, scale, freeze, pack, mmap, verify, firstTouch, annBuild, refresh time.Duration
	total                                                                   time.Duration
	fileBytes                                                               int64
	heapPerEdge                                                             float64
}

// node is one serving node: a deployment behind a loopback listener.
type node struct {
	name       string
	dep        *serving.Deployment
	srv        *http.Server
	url        string
	served     chan error
	workerDone <-chan struct{}
}

// stack is the whole online system in one process.
type stack struct {
	opts      stackOptions
	path      string // the packed .cosmo artifact
	probeID   string // a head ID for the first-touch query
	nodes     []*node
	router    *cluster.Router
	transport *http.Transport
	client    *http.Client
	responder serving.ContextResponder
	annCfg    kg.SimilarityConfig

	// oracle is a heap copy of the artifact; expected answers are
	// computed from it locally, never from the nodes.
	oracle   *kg.Snapshot
	oracleIx *kg.SimilarityIndex
	keys     *keyTable

	cancel     context.CancelFunc
	healthDone <-chan struct{}
	timings    setupTimings
}

// modelResponder adapts COSMO-LM the way cmd/cosmo-serve does.
func modelResponder(lm *cosmolm.Model) serving.ContextResponder {
	return serving.ContextResponderFunc(func(ctx context.Context, q string) (serving.Feature, error) {
		if err := ctx.Err(); err != nil {
			return serving.Feature{}, err
		}
		gens := lm.Generate("search query: "+q, "", "", 3)
		f := serving.Feature{Query: q}
		for _, g := range gens {
			f.Intents = append(f.Intents, g.Text)
			f.Relations = append(f.Relations, string(g.Relation))
		}
		if len(gens) > 0 {
			f.SubCategory = gens[0].Tail
			f.StrongIntent = gens[0].Score > 1.0
		}
		return f, nil
	})
}

// buildStack builds world -> ScaledKG -> Freeze -> pack -> mmap, three
// nodes on loopback listeners and a router over HTTP backends, from the
// repository's public functions only. workDir receives the artifact.
func buildStack(workDir string, opts stackOptions) (_ *stack, err error) {
	t0 := now()
	s := &stack{opts: opts, path: filepath.Join(workDir, "bench.cosmo")}
	defer func() {
		if err != nil {
			s.Close()
		}
	}()
	tm := &s.timings

	runner := experiments.NewRunner(io.Discard, opts.scale)
	runner.Workers = runtime.NumCPU()
	res := runner.World()
	tm.world = since(t0)

	t := now()
	g, err := runner.ScaledKG(opts.factor)
	if err != nil {
		return nil, fmt.Errorf("scale kg: %w", err)
	}
	tm.scale = since(t)

	t = now()
	frozen := g.Freeze()
	tm.freeze = since(t)
	for _, n := range frozen.Nodes() {
		if n.Type != kg.NodeIntention {
			s.probeID = n.ID
			break
		}
	}

	t = now()
	if err := kg.WriteSnapshotFile(s.path, frozen); err != nil {
		return nil, fmt.Errorf("pack: %w", err)
	}
	tm.pack = since(t)
	fi, err := os.Stat(s.path)
	if err != nil {
		return nil, err
	}
	tm.fileBytes = fi.Size()

	// Distinct search queries of the behaviour log, before the builder
	// world is dropped.
	seen := map[string]bool{}
	var queries []string
	for _, sb := range res.Log.SearchBuys {
		if !seen[sb.Query] {
			seen[sb.Query] = true
			queries = append(queries, sb.Query)
		}
	}
	sort.Strings(queries)
	s.responder = serving.NewResilient(modelResponder(res.CosmoLM), serving.ResilienceConfig{
		CallTimeout: time.Second,
		MaxRetries:  2,
		Seed:        1,
	})
	// Drop the builder world: from here on only COSMO-LM (the
	// responder) and the artifact on disk survive.
	g, frozen, res = nil, nil, nil
	runner.DropWorld()

	s.transport = &http.Transport{
		MaxIdleConns:        4 * numNodes * runtime.NumCPU(),
		MaxIdleConnsPerHost: 4 * runtime.NumCPU(),
	}
	s.client = &http.Client{Transport: s.transport}
	s.annCfg = kg.SimilarityConfig{Seed: 1}

	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	specs := make([]cluster.NodeSpec, 0, numNodes)
	for i := 0; i < numNodes; i++ {
		nd, err := s.startNode(ctx, i)
		if err != nil {
			return nil, err
		}
		s.nodes = append(s.nodes, nd)
		var be cluster.Backend = cluster.NewHTTPBackend(nd.url, s.client)
		if opts.tracer != nil {
			be = &tracedBackend{inner: be, tr: opts.tracer, node: i}
		}
		specs = append(specs, cluster.NodeSpec{Name: nd.name, Backend: be})
	}
	s.router, err = cluster.New(specs, cluster.Config{Replication: replication})
	if err != nil {
		return nil, err
	}
	s.router.CheckHealth(ctx)
	if n := s.router.EligibleNodes(); n != numNodes {
		return nil, fmt.Errorf("only %d of %d nodes ready after set-up", n, numNodes)
	}
	s.healthDone = s.router.StartHealthLoop(ctx)

	if s.oracle, err = kg.ReadSnapshotFile(s.path); err != nil {
		return nil, fmt.Errorf("oracle copy: %w", err)
	}
	s.oracleIx = kg.BuildSimilarityIndex(s.oracle, s.annCfg)
	s.keys = newKeyTable(s.oracle, queries)
	tm.total = since(t0)
	return s, nil
}

// startNode maps the artifact, installs it and the ANN index in a fresh
// deployment, and serves it on a loopback listener. Node 0 also times
// the map, verify, first-touch and ANN build for the trace report.
func (s *stack) startNode(ctx context.Context, i int) (*node, error) {
	tm := &s.timings
	measureHeap := i == 0 && s.opts.tracer != nil
	var heapBefore float64
	if measureHeap {
		heapBefore = liveHeapMiB()
	}
	t := now()
	snap, err := kg.MapSnapshotFile(s.path)
	if err != nil {
		return nil, fmt.Errorf("map snapshot: %w", err)
	}
	if i == 0 {
		tm.mmap = since(t)
	}
	if measureHeap {
		tm.heapPerEdge = (liveHeapMiB() - heapBefore) * (1 << 20) / float64(snap.NumEdges())
	}
	if i == 0 {
		// First touch: the query that absorbs the lazy per-section CRC.
		t = now()
		snap.IntentionsFor(s.probeID)
		snap.RelatedProducts(s.probeID, 10)
		tm.firstTouch = since(t)
		t = now()
		if err := snap.Verify(); err != nil {
			return nil, fmt.Errorf("verify snapshot: %w", err)
		}
		tm.verify = since(t)
	}
	dep := serving.NewDeploymentContext(serving.DeployConfig{DailyCacheCap: 4096}, s.responder)
	dep.SetKG(snap)
	t = now()
	ix := kg.BuildSimilarityIndex(snap, s.annCfg)
	if i == 0 {
		tm.annBuild = since(t)
	}
	dep.SetSimilarity(ix)
	dep.SetReady(true)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("node%d", i)
	handler := serving.NewHTTPHandler(dep)
	if s.opts.tracer != nil {
		handler = &tracedHandler{inner: handler, tr: s.opts.tracer, node: i}
	}
	nd := &node{
		name:       name,
		dep:        dep,
		url:        "http://" + ln.Addr().String(),
		served:     make(chan error, 1),
		workerDone: dep.StartWorker(ctx, batchEvery, batchSize),
		srv: &http.Server{
			Handler:           handler,
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       10 * time.Second,
			WriteTimeout:      30 * time.Second,
			IdleTimeout:       120 * time.Second,
		},
	}
	go func() { nd.served <- nd.srv.Serve(ln) }()
	return nd, nil
}

// refreshNode does to node i what cosmo-serve -mmap does on a refresh
// tick with a changed artifact: a fresh mapping, the daily refresh and
// RCU swap, then a rebuilt ANN index. It returns the commit time.
func (s *stack) refreshNode(ctx context.Context, i int) (time.Time, error) {
	dep := s.nodes[i].dep
	fresh, err := kg.MapSnapshotFile(s.path)
	if err != nil {
		return time.Time{}, fmt.Errorf("refresh map: %w", err)
	}
	if err := dep.DailyRefreshContext(ctx, s.responder, fresh, yearlyTop); err != nil {
		return time.Time{}, fmt.Errorf("refresh: %w", err)
	}
	committed := now()
	dep.SetSimilarity(kg.BuildSimilarityIndex(dep.KG(), s.annCfg))
	return committed, nil
}

// liveHeapMiB is HeapAlloc after a double GC (the second cycle clears
// sync.Pool victims).
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// Close stops every goroutine the stack started and waits for each.
func (s *stack) Close() {
	if s.cancel != nil {
		s.cancel()
	}
	if s.healthDone != nil {
		<-s.healthDone
	}
	// Client side first: a connection dialled for a hedge that was then
	// cancelled never carried a request, and Shutdown waits five seconds
	// before it counts such a connection as idle.
	if s.transport != nil {
		s.transport.CloseIdleConnections()
	}
	for _, nd := range s.nodes {
		shutCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		if err := nd.srv.Shutdown(shutCtx); err != nil {
			if cerr := nd.srv.Close(); cerr != nil {
				fmt.Fprintf(os.Stderr, "bench: close %s: %v\n", nd.name, cerr)
			}
		}
		cancel()
		<-nd.served
		<-nd.workerDone
		if snap := nd.dep.KG(); snap != nil {
			if err := snap.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "bench: close snapshot %s: %v\n", nd.name, err)
			}
		}
	}
}

// keyStrings is one key with every string the generator sends for it,
// built once so the measured loop formats nothing.
type keyStrings struct {
	key  string
	raw  string // "q=<key>" (queries only)
	rawK string // "id=<key>&k=10" or "q=<key>&k=10"
	frag string // the key's POST /batch item
}

// keyTable holds the keys in popularity order (index 0 is hottest),
// followed by unknownKeys keys the snapshot and log do not contain.
type keyTable struct {
	heads, queries   []keyStrings
	nHeads, nQueries int // known keys; the rest are unknown
}

func newKeyTable(snap *kg.Snapshot, queries []string) *keyTable {
	var heads []string
	for _, n := range snap.Nodes() {
		if n.Type != kg.NodeIntention {
			heads = append(heads, n.ID)
		}
	}
	queries = append([]string(nil), queries...)
	rng := rand.New(rand.NewSource(popularitySeed))
	rng.Shuffle(len(heads), func(i, j int) { heads[i], heads[j] = heads[j], heads[i] })
	rng.Shuffle(len(queries), func(i, j int) { queries[i], queries[j] = queries[j], queries[i] })
	kt := &keyTable{nHeads: len(heads), nQueries: len(queries)}
	for i := 0; i < unknownKeys; i++ {
		heads = append(heads, fmt.Sprintf("p:NOSUCH%04d", i))
		queries = append(queries, fmt.Sprintf("no such query %04d", i))
	}
	for _, id := range heads {
		kt.heads = append(kt.heads, keyStrings{
			key:  id,
			rawK: "id=" + url.QueryEscape(id) + "&k=10",
			frag: `{"op":"intentions","id":` + string(wire.AppendString(nil, id)) + `,"k":10}`,
		})
	}
	for _, q := range queries {
		esc := url.QueryEscape(q)
		kt.queries = append(kt.queries, keyStrings{
			key:  q,
			raw:  "q=" + esc,
			rawK: "q=" + esc + "&k=10",
			frag: `{"op":"intent","q":` + string(wire.AppendString(nil, q)) + `}`,
		})
	}
	return kt
}

// of resolves an op to its key strings.
func (kt *keyTable) of(o op) *keyStrings {
	if o.ep == epIntentions || o.ep == epRelated {
		return &kt.heads[o.key]
	}
	return &kt.queries[o.key]
}
