package main

import (
	"os"
	"path/filepath"
	"testing"

	"cosmo/internal/catalog"
	"cosmo/internal/kg"
	"cosmo/internal/relations"
	"cosmo/internal/serving"
)

// publish atomically replaces path with an artifact holding one edge
// from each of the given product IDs (write temp + rename, the way a
// rebuilt artifact reaches a serving node).
func publish(t *testing.T, path string, products ...string) {
	t.Helper()
	g := kg.New()
	g.AddNode(kg.Node{ID: "i:used_for:camping", Type: kg.NodeIntention, Label: "camping"})
	for _, p := range products {
		g.AddNode(kg.Node{ID: p, Type: kg.NodeProduct, Label: "tent"})
		if err := g.AddEdge(kg.Edge{Head: p, Relation: relations.UsedForEve, Tail: "i:used_for:camping",
			Domain: catalog.Sports, PlausibleScore: 0.9, TypicalScore: 0.8, Support: 1}); err != nil {
			t.Fatal(err)
		}
	}
	tmp := path + ".tmp"
	if err := kg.WriteSnapshotFile(tmp, g.Freeze()); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}
}

// TestArtifactStampsBeforeLoading is the regression test for the
// stamp/load ordering: an artifact replaced while the previous revision
// is being loaded must be picked up by the next tick. Stamping after
// the load recorded the new revision's stamp beside the old revision's
// content, and every later tick skipped the reload.
func TestArtifactStampsBeforeLoading(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kg.cosmo")
	publish(t, path, "p:P1")
	a := &artifact{path: path}
	snap, err := a.load(func(p string) (*kg.Snapshot, error) {
		s, err := loadVerified(p)
		publish(t, p, "p:P1", "p:P2") // a new revision lands right behind the load
		return s, err
	})
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if snap.NumEdges() != 1 {
		t.Fatalf("loaded %d edges, want the first revision's 1", snap.NumEdges())
	}
	if !a.changed() {
		t.Fatal("a revision published during the load is never reloaded")
	}
	next, err := a.load(loadVerified)
	if err != nil {
		t.Fatal(err)
	}
	defer next.Close()
	if next.NumEdges() != 2 {
		t.Fatalf("reloaded %d edges, want the second revision's 2", next.NumEdges())
	}
	if a.changed() {
		t.Fatal("an untouched artifact reports changed right after its load")
	}
}

// TestTickKeepsServingSnapshot pins that a refresh tick redoes no work
// for an unchanged KG: with no artifact, or an artifact unchanged on
// disk, it hands back the snapshot already serving — the same pointer,
// so no re-freeze and no ANN rebuild — and only a changed file yields a
// new one.
func TestTickKeepsServingSnapshot(t *testing.T) {
	newDep := func() *serving.Deployment {
		return serving.NewDeployment(serving.DeployConfig{}, serving.ResponderFunc(func(q string) serving.Feature {
			return serving.Feature{Query: q}
		}))
	}

	dep := newDep()
	g := kg.New()
	g.AddNode(kg.Node{ID: "p:P1", Type: kg.NodeProduct, Label: "tent"})
	frozen := g.Freeze()
	dep.SetKG(frozen)
	if got := (&artifact{}).tick(dep); got != frozen {
		t.Error("a tick without an artifact replaced the start-up snapshot")
	}

	path := filepath.Join(t.TempDir(), "kg.cosmo")
	publish(t, path, "p:P1")
	a := &artifact{path: path}
	loaded, err := a.load(loadVerified)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	dep = newDep()
	dep.SetKG(loaded)
	if got := a.tick(dep); got != loaded {
		t.Error("a tick on an unchanged artifact replaced the serving snapshot")
	}
	if reloads, skipped := dep.SnapshotReloadStats(); reloads != 0 || skipped != 1 {
		t.Errorf("reloads/skipped = %d/%d, want 0/1", reloads, skipped)
	}

	publish(t, path, "p:P1", "p:P2")
	next := a.tick(dep)
	if next == loaded || next.NumEdges() != 2 {
		t.Fatalf("a tick on a changed artifact did not load the new revision")
	}
	next.Close()
	if reloads, _ := dep.SnapshotReloadStats(); reloads != 1 {
		t.Errorf("reloads = %d, want 1", reloads)
	}
}

// TestLoadVerifiedRejectsDamage pins that a damaged artifact is a load
// error before any swap, not a snapshot that panics on first touch.
func TestLoadVerifiedRejectsDamage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kg.cosmo")
	publish(t, path, "p:P1")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0x5A // last byte of the last section body: only its lazy checksum notices
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if snap, err := loadVerified(path); err == nil {
		snap.Close()
		t.Fatal("loadVerified accepted an artifact with a flipped body byte")
	}
}
