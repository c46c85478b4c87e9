package serving

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cosmo/internal/catalog"
	"cosmo/internal/kg"
	"cosmo/internal/relations"
)

// publish atomically replaces path with an artifact holding one edge
// from each of the given product IDs (kg.WriteSnapshotFile publishes by
// rename, the way a rebuilt artifact reaches a serving node).
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
	if err := kg.WriteSnapshotFile(path, g.Freeze()); err != nil {
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
// index rebuild — and only a changed file yields a new one.
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

// TestMetricsNameServedArtifact: /metrics identifies the artifact the
// serving generation was loaded from — its table checksum as the
// cosmo_kg_artifact_info label and its load time — and both move when
// Artifact.Refresh swaps in the next revision.
func TestMetricsNameServedArtifact(t *testing.T) {
	identity := func(dep *Deployment) (crc string, loadedAt float64) {
		t.Helper()
		var page strings.Builder
		if err := dep.WriteMetrics(&page); err != nil {
			t.Fatal(err)
		}
		samples, err := ParseMetrics(strings.NewReader(page.String()))
		if err != nil {
			t.Fatal(err)
		}
		crc, loadedAt = "none", -1
		for _, s := range samples {
			switch s.Name {
			case "cosmo_kg_artifact_info":
				crc = s.Labels["table_crc"]
			case "cosmo_kg_loaded_at_seconds":
				loadedAt = s.Value
			}
		}
		return crc, loadedAt
	}
	start := time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)
	clock := NewFakeClock(start)
	dep := NewDeploymentContext(DeployConfig{}, echoResponder("v1"))
	dep.Clock = clock
	dep.Install(&Generation{Snap: kg.New().Freeze()})
	if crc, loadedAt := identity(dep); crc != "none" || loadedAt != -1 {
		t.Fatalf("a snapshot frozen in process exports artifact %s loaded at %v", crc, loadedAt)
	}

	path := filepath.Join(t.TempDir(), "kg.cosmo")
	publish(t, path, "p:P1")
	a := &Artifact{Path: path}
	first, err := a.Load(dep)
	if err != nil {
		t.Fatal(err)
	}
	defer first.Snap.Close()
	dep.Install(first)
	crc1, at1 := identity(dep)
	if want := fmt.Sprintf("%016x", first.Stamp.TableCRC); crc1 != want || first.Stamp.TableCRC == 0 {
		t.Fatalf("table_crc = %s, want %s", crc1, want)
	}
	if at1 != float64(start.Unix()) {
		t.Fatalf("loaded at %v, want %d", at1, start.Unix())
	}

	clock.Advance(time.Hour)
	publish(t, path, "p:P1", "p:P2")
	next, err := a.Refresh(context.Background(), dep, echoResponder("v2"))
	if err != nil || next == nil {
		t.Fatalf("refresh loaded %v, err %v", next, err)
	}
	defer next.Snap.Close()
	crc2, at2 := identity(dep)
	if want := fmt.Sprintf("%016x", next.Stamp.TableCRC); crc2 != want || crc2 == crc1 {
		t.Fatalf("after the swap table_crc = %s, want %s (was %s)", crc2, want, crc1)
	}
	if at2 != float64(start.Add(time.Hour).Unix()) {
		t.Fatalf("after the swap loaded at %v, want %d", at2, start.Add(time.Hour).Unix())
	}
}
