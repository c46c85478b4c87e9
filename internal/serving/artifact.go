package serving

import (
	"context"
	"log"
	"os"
	"time"

	"cosmo/internal/kg"
)

// Artifact follows a packed snapshot file (.cosmo) across refresh
// ticks. A tick reloads the file only when it differs from the revision
// the serving generation was stamped with: same stat identity
// (mtime+size) or the same table checksum skips the reload. An empty
// Path means there is no file to follow.
type Artifact struct {
	Path string
}

// refreshYearlyTop is the yearly cache layer size a refresh tick rebuilds.
const refreshYearlyTop = 2048

// Load stamps the file, maps and verifies it, and builds its
// similarity index, counting one snapshot reload on dep and stamping the
// generation with dep's clock as LoadedAt.
func (a *Artifact) Load(dep *Deployment) (*Generation, error) {
	g, err := a.load(kg.MapSnapshotFile)
	if err != nil {
		return nil, err
	}
	g.LoadedAt = dep.Clock.Now()
	dep.snapshotReloads.Add(1)
	return g, nil
}

// load is Load with the mapping as a parameter, so the order can be
// tested. Stamp first: a file replaced in between is served under the
// old stamp and reloaded by the next tick. The other order would serve
// the old content under the new stamp, and every later tick would skip.
func (a *Artifact) load(mapFile func(path string) (*kg.Snapshot, error)) (*Generation, error) {
	stamp, stampErr := kg.StampSnapshotFile(a.Path)
	snap, err := mapFile(a.Path)
	if err != nil {
		return nil, err
	}
	if stampErr != nil {
		log.Printf("snapshot stamp failed (next tick will reload): %v", stampErr)
	}
	return NewGeneration(snap, stamp), nil
}

// changed reports whether the file differs from the revision stamped
// serving. A file rewritten byte-identically (e.g. an idempotent
// rebuild) is recognised by its content fingerprint.
func (a *Artifact) changed(serving kg.SnapshotStamp) bool {
	if fi, err := os.Stat(a.Path); err == nil &&
		fi.Size() == serving.Size && fi.ModTime().Equal(serving.ModTime) {
		return false
	}
	stamp, err := kg.StampSnapshotFile(a.Path)
	return err != nil || !stamp.SameContent(serving)
}

// tick picks the generation a refresh tick commits: nil keeps the
// serving one, unless the file changed on disk and loads cleanly.
func (a *Artifact) tick(dep *Deployment) *Generation {
	if a.Path == "" {
		return nil
	}
	if !a.changed(dep.Generation().Stamp) {
		dep.snapshotReloadsSkipped.Add(1)
		log.Print("snapshot unchanged on disk; skipping reload")
		return nil
	}
	next, err := a.Load(dep)
	if err != nil {
		log.Printf("snapshot reload failed (current snapshot keeps serving): %v", err)
	}
	return next
}

// Refresh runs one refresh tick through dep.Refresh and returns the
// generation it put in service, or nil when the serving one stayed. A
// failed refresh closes the reloaded snapshot and commits nothing, so
// the next tick compares the file with the old stamp and loads it again.
func (a *Artifact) Refresh(ctx context.Context, dep *Deployment, responder ContextResponder) (*Generation, error) {
	next := a.tick(dep)
	if err := dep.Refresh(ctx, responder, next, refreshYearlyTop); err != nil {
		if next != nil {
			next.Snap.Close() //cosmo:lint-ignore dropped-error the refresh error is the root cause
		}
		return nil, err
	}
	return next, nil
}

// Run refreshes dep every interval until ctx is done. A failed refresh
// is atomic, so it is logged and the next tick retries.
func (a *Artifact) Run(ctx context.Context, dep *Deployment, responder ContextResponder, every time.Duration) {
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			log.Print("daily refresh: rotating model, caches and KG snapshot")
			if g, err := a.Refresh(ctx, dep, responder); err != nil {
				log.Printf("daily refresh failed (previous model keeps serving): %v", err)
			} else if g != nil {
				log.Printf("reloaded snapshot: %d nodes / %d edges, similarity index: %d intentions indexed",
					g.Snap.NumNodes(), g.Snap.NumEdges(), g.Sim.NumIndexed())
			}
		}
	}
}
