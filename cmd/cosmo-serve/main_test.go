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

// TestLoadVerifiedRejectsDamage pins that a damaged -snapshot artifact
// is a load error before any install: the loader checksums every
// section.
func TestLoadVerifiedRejectsDamage(t *testing.T) {
	g := kg.New()
	g.AddNode(kg.Node{ID: "i:used_for:camping", Type: kg.NodeIntention, Label: "camping"})
	g.AddNode(kg.Node{ID: "p:P1", Type: kg.NodeProduct, Label: "tent"})
	if err := g.AddEdge(kg.Edge{Head: "p:P1", Relation: relations.UsedForEve, Tail: "i:used_for:camping",
		Domain: catalog.Sports, PlausibleScore: 0.9, TypicalScore: 0.8, Support: 1}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "kg.cosmo")
	if err := kg.WriteSnapshotFile(path, g.Freeze()); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0x5A // last byte of the last section body: only its checksum notices
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	dep := serving.NewDeploymentContext(serving.DeployConfig{}, nil)
	if gen, err := (&serving.Artifact{Path: path}).Load(dep); err == nil {
		gen.Snap.Close()
		t.Fatal("Artifact.Load accepted an artifact with a flipped body byte")
	}
}
