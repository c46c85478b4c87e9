package core

import (
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"cosmo/internal/fnv1a"
	"cosmo/internal/kg"
)

// harnessConfig is the sizing of one `offline-build` benchmark op
// (bench/offline.go): 8 products per type, 2000+2000 events, annotation
// budget 500.
func harnessConfig(seed int64, workers int) Config {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.Behavior.Seed = seed
	cfg.Catalog.ProductsPerType = 8
	cfg.Behavior.CoBuyEvents = 2000
	cfg.Behavior.SearchEvents = 2000
	cfg.AnnotationBudget = 500
	cfg.Workers = workers
	return cfg
}

// fnvWriter folds everything written to it into a 64-bit FNV-1a state.
type fnvWriter struct{ h uint64 }

func (w *fnvWriter) Write(p []byte) (int, error) {
	for _, c := range p {
		w.h = fnv1a.Byte64(w.h, c)
	}
	return len(p), nil
}

// contentDigest fingerprints what a snapshot says, independent of how
// the artifact lays it out: FNV-1a over the JSONL export followed by
// one id\ttype\tlabel line per node.
func contentDigest(t *testing.T, s *kg.Snapshot) string {
	t.Helper()
	w := &fnvWriter{h: fnv1a.Offset64}
	if err := s.WriteJSONL(w); err != nil {
		t.Fatal(err)
	}
	for _, n := range s.Nodes() {
		fmt.Fprintf(w, "%s\t%s\t%s\n", n.ID, n.Type, n.Label)
	}
	return fmt.Sprintf("%016x", w.h)
}

// TestOfflineFingerprintGolden holds the contract ROADMAP quotes: a seed
// fixes the KG's content digest, the packed artifact's table
// fingerprint, the edge count and both simulated cost meters, at any
// worker count. An exact rewrite of the text path (tokenizer, COSMO-LM
// scoring, filter) must leave every value here alone; a change that
// moves content changed what the KG says. A format change moves only
// fingerprint: content does not depend on the artifact layout.
func TestOfflineFingerprintGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden floats are pinned on amd64: other targets may fuse multiply-adds and legitimately differ")
	}
	golden := []struct {
		seed        int64
		content     string
		fingerprint string
		edges       int
		cosmoLMMs   float64
		teacherMs   float64
	}{
		{1, "1482ac0469a3a721", "f2081c081cf09ace", 4405, 693662.5, 2314980},
		{7, "0684b6d3ca2ecf6a", "2870738f51560f7d", 4474, 709177.5, 2399688},
		{23, "b81390543b426d01", "0f963be25e1818c6", 4378, 704012.5, 2357460},
	}
	for _, g := range golden {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("seed%d/workers%d", g.seed, workers), func(t *testing.T) {
				res, err := Run(harnessConfig(g.seed, workers))
				if err != nil {
					t.Fatal(err)
				}
				snap := res.KG.Freeze()
				if got := contentDigest(t, snap); got != g.content {
					t.Errorf("content %s, want %s", got, g.content)
				}
				path := filepath.Join(t.TempDir(), "golden.cosmo")
				if err := kg.WriteSnapshotFile(path, snap); err != nil {
					t.Fatal(err)
				}
				stamp, err := kg.StampSnapshotFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if got := fmt.Sprintf("%016x", stamp.TableCRC); got != g.fingerprint {
					t.Errorf("fingerprint %s, want %s", got, g.fingerprint)
				}
				if got := res.KG.NumEdges(); got != g.edges {
					t.Errorf("edges %d, want %d", got, g.edges)
				}
				if got := res.CosmoLMCost.SimulatedMs; got != g.cosmoLMMs {
					t.Errorf("COSMO-LM cost %v sim-ms, want %v", got, g.cosmoLMMs)
				}
				if got := res.TeacherCost.SimulatedMs; got != g.teacherMs {
					t.Errorf("teacher cost %v sim-ms, want %v", got, g.teacherMs)
				}
			})
		}
	}
}
