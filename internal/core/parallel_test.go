package core

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// TestPipelineWorkersEquivalence is the proof obligation of the parallel
// pipeline: a run with Workers=1 and a run with Workers=8 must produce
// byte-identical artifacts — KG node/edge sets, filter report, kept
// candidates, instruction data, and even the simulated cost meters
// (every charge is an exact multiple of 0.5 ms, so summation order
// cannot perturb the totals).
func TestPipelineWorkersEquivalence(t *testing.T) {
	seq := smallConfig()
	seq.Workers = 1
	par := smallConfig()
	par.Workers = 8

	r1, err := Run(seq)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := Run(par)
	if err != nil {
		t.Fatal(err)
	}

	if r1.RawCandidates != r8.RawCandidates {
		t.Errorf("raw candidates: %d vs %d", r1.RawCandidates, r8.RawCandidates)
	}
	if !reflect.DeepEqual(r1.FilterReport, r8.FilterReport) {
		t.Errorf("filter reports differ:\n%+v\nvs\n%+v", r1.FilterReport, r8.FilterReport)
	}
	if !reflect.DeepEqual(r1.Kept, r8.Kept) {
		t.Error("kept candidates differ")
	}
	if !reflect.DeepEqual(r1.AnnotatedCandidates, r8.AnnotatedCandidates) {
		t.Error("annotation samples differ")
	}
	if !reflect.DeepEqual(r1.Instruction, r8.Instruction) {
		t.Error("instruction datasets differ")
	}
	if r1.ExpandedEdges != r8.ExpandedEdges {
		t.Errorf("expansion added %d vs %d edges", r1.ExpandedEdges, r8.ExpandedEdges)
	}

	if r1.KG.NumNodes() != r8.KG.NumNodes() || r1.KG.NumEdges() != r8.KG.NumEdges() {
		t.Fatalf("KG shape differs: %d/%d vs %d/%d",
			r1.KG.NumNodes(), r1.KG.NumEdges(), r8.KG.NumNodes(), r8.KG.NumEdges())
	}
	e1, e8 := r1.KG.Edges(), r8.KG.Edges()
	for i := range e1 {
		if e1[i] != e8[i] {
			t.Fatalf("KG edge %d differs:\n%+v\nvs\n%+v", i, e1[i], e8[i])
		}
	}
	n1, n8 := r1.KG.Nodes(), r8.KG.Nodes()
	if len(n1) != len(n8) {
		t.Fatalf("node counts differ: %d vs %d", len(n1), len(n8))
	}
	for i := range n1 {
		if !reflect.DeepEqual(n1[i], n8[i]) {
			t.Fatalf("KG node %d differs", i)
		}
	}

	if r1.TeacherCost != r8.TeacherCost {
		t.Errorf("teacher cost differs: %+v vs %+v", r1.TeacherCost, r8.TeacherCost)
	}
	if r1.CosmoLMCost != r8.CosmoLMCost {
		t.Errorf("cosmo-lm cost differs: %+v vs %+v", r1.CosmoLMCost, r8.CosmoLMCost)
	}
}

// TestPipelineWorkersDefaultEquivalence: the defaulted worker count
// (0 = GOMAXPROCS) is on the same output contract as any explicit one.
func TestPipelineWorkersDefaultEquivalence(t *testing.T) {
	auto := smallConfig()
	auto.ExpandWithCosmoLM = false
	one := smallConfig()
	one.ExpandWithCosmoLM = false
	one.Workers = 1

	ra, err := Run(auto)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Run(one)
	if err != nil {
		t.Fatal(err)
	}
	if ra.KG.NumEdges() != r1.KG.NumEdges() || ra.KG.NumNodes() != r1.KG.NumNodes() {
		t.Fatalf("default workers changed the KG: %d/%d vs %d/%d",
			ra.KG.NumNodes(), ra.KG.NumEdges(), r1.KG.NumNodes(), r1.KG.NumEdges())
	}
	if !reflect.DeepEqual(ra.FilterReport, r1.FilterReport) {
		t.Error("default workers changed the filter report")
	}
}

// goroutineID reads the calling goroutine's number from its stack
// header, "goroutine N [running]:".
func goroutineID() string {
	var buf [64]byte
	header := buf[:runtime.Stack(buf[:], false)]
	return string(bytes.Fields(header)[1])
}

// logCall is one Config.Logf call as Run made it.
type logCall struct {
	format string
	args   []any
}

// TestRunLogOrder is the stage-overlap contract the benchmark harness
// parses: Run makes the same Logf calls — format strings in stage order,
// arguments — at Workers 1 and 8, and makes every one of them on the
// goroutine that called Run, never on a branch's.
func TestRunLogOrder(t *testing.T) {
	// The prefixes bench/offline.go maps to stage timings, in stage order.
	stages := []string{"world:", "sampled:", "generated", "filter kept", "annotated",
		"kg: admitted", "instruction data", "kg expansion", "canonicalized"}
	record := func(workers int) []logCall {
		t.Helper()
		cfg := smallConfig()
		cfg.Workers = workers
		caller := goroutineID()
		var calls []logCall
		cfg.Logf = func(format string, args ...any) {
			if id := goroutineID(); id != caller {
				t.Errorf("workers %d: %q logged on goroutine %s, Run was called on %s", workers, format, id, caller)
			}
			calls = append(calls, logCall{format, args})
		}
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		return calls
	}
	seq, par := record(1), record(8)
	if len(seq) != len(stages) {
		t.Fatalf("%d progress lines, want one per stage %q", len(seq), stages)
	}
	for i, c := range seq {
		if !strings.HasPrefix(c.format, stages[i]) {
			t.Errorf("line %d is %q, want the %q stage", i, c.format, stages[i])
		}
	}
	// Formats and arguments, the kg: admitted counts the harness reads
	// among them.
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("progress lines differ between workers 1 and 8:\n%v\nvs\n%v", seq, par)
	}
}
