package kg

import (
	"errors"
	"math"
	"strings"
	"testing"

	"cosmo/internal/catalog"
	"cosmo/internal/relations"
)

// danglingGraph builds a graph holding an edge whose head or tail node
// is missing — a state AddEdge refuses but that corruption, partial
// loads or future delete operations could produce. The test reaches into
// the unexported node index deliberately: the node keeps its number, but
// the graph no longer names it.
func danglingGraph(t *testing.T, missing string) *Graph {
	t.Helper()
	g := New()
	g.AddNode(Node{ID: "p:P1", Type: NodeProduct, Label: "tent"})
	g.AddNode(Node{ID: "i:used_for:camping", Type: NodeIntention, Label: "camping"})
	if err := g.AddEdge(Edge{Head: "p:P1", Relation: relations.UsedForEve, Tail: "i:used_for:camping",
		Domain: catalog.Sports, Support: 1}); err != nil {
		t.Fatal(err)
	}
	delete(g.index, missing)
	return g
}

// TestWriteJSONLDanglingEdge is the regression test for the silent
// empty-label bug: a dangling edge used to export a row with
// tail_label "", poisoning downstream feature pipelines. Export runs on
// a snapshot, and FreezeChecked refuses the graph, naming the edge and
// the missing node.
func TestWriteJSONLDanglingEdge(t *testing.T) {
	_, err := danglingGraph(t, "i:used_for:camping").FreezeChecked()
	if err == nil {
		t.Fatal("FreezeChecked accepted a dangling edge")
	}
	if !strings.Contains(err.Error(), "unknown tail node") || !strings.Contains(err.Error(), "i:used_for:camping") {
		t.Fatalf("error does not name the dangling node: %v", err)
	}
}

// TestWriteTSVDanglingEdge is the same regression for a missing head,
// through Freeze's panic.
func TestWriteTSVDanglingEdge(t *testing.T) {
	g := danglingGraph(t, "p:P1")
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "unknown head node") || !strings.Contains(msg, "p:P1") {
			t.Fatalf("Freeze panic does not name the dangling node: %q", msg)
		}
	}()
	g.Freeze()
}

// failAfterWriter errors once n bytes have been written — it simulates
// a disk filling up mid-write.
type failAfterWriter struct {
	n       int
	written int
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.n {
		return 0, errors.New("disk full")
	}
	w.written += len(p)
	return len(p), nil
}

// TestWriteSnapshotSurfacesWriteError pins that a sink failing
// mid-write is reported, not swallowed by the buffered writer.
func TestWriteSnapshotSurfacesWriteError(t *testing.T) {
	s := buildTestGraph(t).Freeze()
	if err := s.WriteSnapshot(&failAfterWriter{n: 64}); err == nil {
		t.Fatal("WriteSnapshot swallowed the sink's write error")
	}
}

// TestCheckFreezeCapacity exercises the int32 guard directly — the
// counts themselves cannot be constructed in a test process.
func TestCheckFreezeCapacity(t *testing.T) {
	if err := checkFreezeCapacity(10, 20, 3, 4); err != nil {
		t.Fatalf("small graph rejected: %v", err)
	}
	over := math.MaxInt32 + 1
	for name, args := range map[string][4]int{
		"nodes":     {over, 0, 0, 0},
		"edges":     {0, over, 0, 0},
		"relations": {0, 0, over, 0},
		"domains":   {0, 0, 0, over},
	} {
		err := checkFreezeCapacity(args[0], args[1], args[2], args[3])
		if err == nil {
			t.Fatalf("%s over int32 accepted", name)
		}
		if !strings.Contains(err.Error(), name) || !strings.Contains(err.Error(), "int32") {
			t.Fatalf("%s guard error not descriptive: %v", name, err)
		}
	}
}

// TestFreezeCheckedSupportOverflow pins the per-edge support guard: a
// support count beyond int32 used to truncate silently into the
// snapshot's eSup array.
func TestFreezeCheckedSupportOverflow(t *testing.T) {
	g := buildTestGraph(t)
	// Push one edge's merged support past int32 via the mutable store.
	g.edges[0].Support = math.MaxInt32 + 1
	if _, err := g.FreezeChecked(); err == nil {
		t.Fatal("FreezeChecked accepted an edge with support > MaxInt32")
	} else if !strings.Contains(err.Error(), "support") {
		t.Fatalf("support guard error not descriptive: %v", err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Freeze did not panic on support overflow")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "support") {
			t.Fatalf("Freeze panic lacks the reason: %v", r)
		}
	}()
	g.Freeze()
}

// TestFreezeCheckedMatchesFreeze pins that the checked path returns the
// same snapshot a plain Freeze builds.
func TestFreezeCheckedMatchesFreeze(t *testing.T) {
	g := buildTestGraph(t)
	s, err := g.FreezeChecked()
	if err != nil {
		t.Fatal(err)
	}
	assertSnapshotsEqual(t, g.Freeze(), s)
}
