package kg

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// TestPublishKeepsMappedSnapshot: writing a new artifact onto a path a
// reader has mapped must leave the mapped answers as they were. A
// writer that truncated and rewrote the file in place would show the
// new bytes through the old mapping, laid out as the old header said.
func TestPublishKeepsMappedSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	a := randomGraph(t, rng, 120).Freeze()
	path := writeFile(t, a)
	mapped, err := MapSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	answers := func(s *Snapshot) []string {
		var out []string
		for _, n := range a.Nodes() {
			out = append(out, fmt.Sprintf("%+v", s.IntentionsFor(n.ID).Edges()))
		}
		return out
	}
	want := answers(a)

	b := randomGraph(t, rng, 240).Freeze()
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshotFile(path, b); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() < before.Size() {
		t.Fatalf("second artifact is %d bytes, want at least the first's %d", after.Size(), before.Size())
	}
	if got := after.Mode().Perm(); got != 0o644 {
		t.Errorf("published mode %v, want 0644", got)
	}
	for i, got := range answers(mapped) {
		if got != want[i] {
			t.Fatalf("after the rewrite, mapped IntentionsFor answer %d = %s, want %s", i, got, want[i])
		}
	}
	if err := mapped.Verify(); err != nil {
		t.Fatalf("mapped snapshot no longer verifies: %v", err)
	}
}

// TestPublishFileFailedWrite: a write that fails halfway returns its
// error and leaves the old file intact with no temporary file behind.
func TestPublishFileFailedWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.tsv")
	if err := PublishFile(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "old\n")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := PublishFile(path, func(w io.Writer) error {
		if _, err := io.WriteString(w, "half of the new"); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("PublishFile = %v, want the write's error", err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "old\n" {
		t.Fatalf("after a failed publish the file holds %q (%v), want the old content", got, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries after a failed publish, want only %s", len(entries), path)
	}
}
