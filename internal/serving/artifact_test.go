package serving

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"cosmo/internal/catalog"
	"cosmo/internal/kg"
	"cosmo/internal/relations"
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
	a := &Artifact{Path: path}
	gen, err := a.load(func(p string) (*kg.Snapshot, error) {
		s, err := kg.MapSnapshotFile(p)
		publish(t, p, "p:P1", "p:P2") // a new revision lands right behind the load
		return s, err
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gen.Snap.Close()
	if gen.Snap.NumEdges() != 1 {
		t.Fatalf("loaded %d edges, want the first revision's 1", gen.Snap.NumEdges())
	}
	if !a.changed(gen.Stamp) {
		t.Fatal("a revision published during the load is never reloaded")
	}
	next, err := a.load(kg.MapSnapshotFile)
	if err != nil {
		t.Fatal(err)
	}
	defer next.Snap.Close()
	if next.Snap.NumEdges() != 2 {
		t.Fatalf("reloaded %d edges, want the second revision's 2", next.Snap.NumEdges())
	}
	if a.changed(next.Stamp) {
		t.Fatal("an untouched artifact reports changed right after its load")
	}
}

// TestTickKeepsServingSnapshot pins that a refresh tick redoes no work
// for an unchanged KG: with no artifact, or an artifact unchanged on
// disk, it keeps the generation already serving — no re-freeze and no
// ANN rebuild — and only a changed file yields a new one.
func TestTickKeepsServingSnapshot(t *testing.T) {
	newDep := func() *Deployment {
		return NewDeploymentContext(DeployConfig{}, echoResponder("v1"))
	}

	dep := newDep()
	g := kg.New()
	g.AddNode(kg.Node{ID: "p:P1", Type: kg.NodeProduct, Label: "tent"})
	dep.Install(&Generation{Snap: g.Freeze()})
	if got := (&Artifact{}).tick(dep); got != nil {
		t.Error("a tick without an artifact replaced the start-up snapshot")
	}

	path := filepath.Join(t.TempDir(), "kg.cosmo")
	publish(t, path, "p:P1")
	a := &Artifact{Path: path}
	loaded, err := a.load(kg.MapSnapshotFile)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Snap.Close()
	dep = newDep()
	dep.Install(loaded)
	if got := a.tick(dep); got != nil {
		t.Error("a tick on an unchanged artifact replaced the serving snapshot")
	}
	if reloads, skipped := dep.snapshotReloads.Load(), dep.snapshotReloadsSkipped.Load(); reloads != 0 || skipped != 1 {
		t.Errorf("reloads/skipped = %d/%d, want 0/1", reloads, skipped)
	}

	publish(t, path, "p:P1", "p:P2")
	next := a.tick(dep)
	if next == nil || next.Snap.NumEdges() != 2 {
		t.Fatalf("a tick on a changed artifact did not load the new revision")
	}
	next.Snap.Close()
	if reloads := dep.snapshotReloads.Load(); reloads != 1 {
		t.Errorf("reloads = %d, want 1", reloads)
	}
}

// TestRefreshRetriesRevisionAfterFailure is the regression test for a
// refresh that fails after a clean reload: the revision it loaded must
// be loaded again by the next tick. Keeping the new stamp made every
// later tick skip that revision as unchanged.
func TestRefreshRetriesRevisionAfterFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kg.cosmo")
	publish(t, path, "p:P1")
	a := &Artifact{Path: path}
	first, err := a.load(kg.MapSnapshotFile)
	if err != nil {
		t.Fatal(err)
	}
	defer first.Snap.Close()
	dep := NewDeploymentContext(DeployConfig{}, echoResponder("v1"))
	dep.Install(first)
	dep.HandleQuery("tent") // one interaction, so the refresh rebuilds it through the responder
	publish(t, path, "p:P1", "p:P2")

	failing := ContextResponderFunc(func(context.Context, string) (Feature, error) {
		return Feature{}, errors.New("model down")
	})
	if _, err := a.Refresh(context.Background(), dep, failing); err == nil {
		t.Fatal("a refresh with a failing responder succeeded")
	}
	if dep.Generation().Snap != first.Snap {
		t.Fatal("a failed refresh swapped the snapshot")
	}

	healthy := ContextResponderFunc(func(_ context.Context, q string) (Feature, error) {
		return Feature{Query: q}, nil
	})
	now, err := a.Refresh(context.Background(), dep, healthy)
	if err != nil {
		t.Fatal(err)
	}
	if now == nil || dep.Generation().Snap != now.Snap || now.Snap.NumEdges() != 2 {
		t.Fatal("the tick after a failed refresh skipped the revision it had loaded")
	}
	now.Snap.Close()
}
