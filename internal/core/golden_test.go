package core

import (
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

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

// TestOfflineFingerprintGolden holds the contract ROADMAP quotes: a seed
// fixes the packed artifact's content fingerprint, the edge count and
// both simulated cost meters, at any worker count. An exact rewrite of
// the text path (tokenizer, COSMO-LM scoring, filter) must leave every
// value here alone; a change that moves one changed what the KG says.
func TestOfflineFingerprintGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden floats are pinned on amd64: other targets may fuse multiply-adds and legitimately differ")
	}
	golden := []struct {
		seed        int64
		fingerprint string
		edges       int
		cosmoLMMs   float64
		teacherMs   float64
	}{
		{1, "90c415243a3c6448", 4405, 693662.5, 2314980},
		{7, "9f20c3c9dc4376e2", 4474, 709177.5, 2399688},
		{23, "872199533b0b1db2", 4378, 704012.5, 2357460},
	}
	for _, g := range golden {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("seed%d/workers%d", g.seed, workers), func(t *testing.T) {
				res, err := Run(harnessConfig(g.seed, workers))
				if err != nil {
					t.Fatal(err)
				}
				path := filepath.Join(t.TempDir(), "golden.cosmo")
				if err := kg.WriteSnapshotFile(path, res.KG.Freeze()); err != nil {
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
